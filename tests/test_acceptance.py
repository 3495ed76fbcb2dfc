"""Acceptance suite: one test per criterion, each printing a PASS line.

Every equality below is exact (integers, fractions, residues); the time
limits come with the criteria and are asserted.
"""

import random
import time
from math import gcd

from burnside.algebra import (
    BurnsideElement,
    identity_element,
    idempotent_system,
    invert,
    mark,
    marks_vector,
    multiply,
    structure_constants,
    table_of_marks,
)
from burnside.bisets import diagonal_induce, diagonal_restrict, gamma, product_of
from burnside.groups import (
    build_group,
    centralizer_of_subgroup,
    normalizer,
    squared,
    subgroup_lattice,
)
from burnside.gsets import decompose, induce_along, iso_equal, product, transitive
from burnside.rings import (
    QQ,
    ZZ,
    Matrix,
    ModularRing,
    NoSolution,
    Solution,
    Zmod,
    solve_linear,
)
from burnside.separability import (
    commutant_basis,
    derivation_space,
    functor_separability,
    ring_separability,
    verify_casimir,
)

from helpers import (
    _embed_d13,
    _embed_delta_g,
    enumerate_modular_solutions,
    span_closure_mod,
)

IDEMPOTENT_GROUPS = ["C1", "C2", "C3", "C4", "prod(C2,C2)", "S3", "D8"]
SEPARABILITY_GROUPS = ["C2", "C3", "S3"]
MACKEY_GROUPS = ["C2", "C3", "prod(C2,C2)", "S3"]
GRID_RINGS = [ZZ, QQ] + [Zmod(m) for m in range(2, 13)]


def _report(n, name, t0, limit):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {n} {name}: PASS ({elapsed:.2f}s < {limit}s)")
    assert elapsed < limit


def test_criterion_1_idempotent_suite():
    t0 = time.monotonic()
    for spec in IDEMPOTENT_GROUPS:
        g = build_group(spec)
        lat = subgroup_lattice(g)
        idems = idempotent_system(g, QQ)
        total = BurnsideElement.zero(g, QQ)
        for i, e in enumerate(idems):
            total = total.add(e)
            for j, f in enumerate(idems):
                expect = e if i == j else BurnsideElement.zero(g, QQ)
                assert multiply(e, f) == expect
        assert total == identity_element(g, QQ)
        for i, e in enumerate(idems):
            label = lat.labels()[i]
            for cj in range(lat.class_count):
                alpha = BurnsideElement.basis(g, QQ, cj)
                assert multiply(e, alpha) == e.scale(mark(alpha, label))
    _report(1, "idempotent suite", t0, 10)


def test_criterion_2_ring_separability_both_directions():
    t0 = time.monotonic()
    for spec in SEPARABILITY_GROUPS:
        g = build_group(spec)
        for ring in GRID_RINGS:
            verdict = ring_separability(g, ring)
            if isinstance(ring, ModularRing):
                expected = gcd(g.order, ring.m) == 1
            elif ring is ZZ:
                expected = g.order == 1
            else:
                expected = True
            assert verdict.separable == expected
            if verdict.separable:
                assert verdict.witness is not None
                assert verify_casimir(verdict.witness)
            else:
                cert = verdict.obstruction["certificate"]
                assert cert["kind"] in ("invariant_factor", "lifted_congruence")
                assert verdict.obstruction["non_unit_order"]["order"] == g.order
    _report(2, "algebra separability iff |G| invertible", t0, 60)


def test_criterion_3_functor_separability():
    t0 = time.monotonic()
    for spec in SEPARABILITY_GROUPS:
        g = build_group(spec)
        lat = subgroup_lattice(g)
        for ring in GRID_RINGS:
            verdict = functor_separability(g, ring)
            assert verdict.separable == ring.is_unit(ring.from_int(g.order))
            if verdict.separable:
                alpha = BurnsideElement.zero(g, ring)
                idems = idempotent_system(g, ring)
                for ci in range(lat.class_count):
                    cz = centralizer_of_subgroup(g, lat.class_rep(ci)).order
                    alpha = alpha.add(idems[ci].scale(ring.inv(ring.from_int(cz))))
                assert multiply(verdict.gamma, alpha) == identity_element(g, ring)
                assert verdict.gamma_inverse == alpha
                assert invert(verdict.gamma) == alpha
    _report(3, "functor separability iff |G| invertible", t0, 30)


def test_criterion_4_mackey_identity():
    t0 = time.monotonic()
    for spec in MACKEY_GROUPS:
        g = build_group(spec)
        lat = subgroup_lattice(g)
        gam = gamma(g, ZZ)
        for ci in range(lat.class_count):
            alpha = BurnsideElement.basis(g, ZZ, ci)
            assert diagonal_restrict(diagonal_induce(alpha)) == \
                multiply(gam, alpha)
    _report(4, "Mackey identity restrict(induce(x)) = gamma*x", t0, 30)


def test_criterion_5_commutant():
    t0 = time.monotonic()
    # D8 up to A4 lie beyond the old base-order cap of 6
    for spec in ("C1", "C2", "C3", "S3", "D8", "Q8", "D10", "D12",
                 "perm:(1 2 3);(1 2)(3 4)", "prod(C2,prod(C2,C2))"):
        g = build_group(spec)
        lat = subgroup_lattice(g)
        res = commutant_basis(g, QQ)
        assert res.matches_diagonal_span
        assert res.dimension == lat.class_count
        diag = set(res.diagonal_class_indices)
        for sol in res.solutions:
            assert set(sol.coeffs) <= diag
        assert commutant_basis(g, Zmod(2)).matches_diagonal_span
    # sufficiency by explicit set computation
    for spec in ("C2", "C3"):
        g = build_group(spec)
        gg = squared(g)
        ggg = product_of([g, g, g])
        lat_g = subgroup_lattice(g)
        lat_gg = subgroup_lattice(gg)
        from burnside.gsets import transitive_of_class
        for cj in range(lat_g.class_count):
            rep = lat_g.class_rep(cj)
            members = [x * g.order + x for x in rep.members]
            ci = lat_gg.class_of[lat_gg.subgroup_index(members)]
            x = transitive_of_class(gg, ci)
            assert iso_equal(induce_along(x, _embed_delta_g(g), ggg),
                             induce_along(x, _embed_d13(g), ggg))
    _report(5, "commutant equals the diagonal span", t0, 120)


def test_criterion_6_derivation_spaces():
    t0 = time.monotonic()
    for spec, ring in (("S3", ZZ), ("C4", ZZ), ("C2", ZZ), ("C3", Zmod(5))):
        assert derivation_space(build_group(spec), ring).is_zero()
    d2 = derivation_space(build_group("C2"), Zmod(2))
    assert not d2.is_zero()
    assert ((1, 0), (0, 0)) in d2.basis  # d([C2/1]) = [C2/1], d([C2/C2]) = 0
    assert not derivation_space(build_group("C3"), Zmod(3)).is_zero()
    _report(6, "derivation spaces / first Hochschild cohomology", t0, 10)


def test_criterion_7_marks_infrastructure():
    t0 = time.monotonic()
    for spec in IDEMPOTENT_GROUPS:
        g = build_group(spec)
        lat = subgroup_lattice(g)
        n = lat.class_count
        gm = marks_vector(gamma(g, ZZ))
        for ci in range(n):
            h = lat.class_rep(ci)
            assert gm[ci] == centralizer_of_subgroup(g, h).order
        tom = table_of_marks(g)
        for i in range(n):
            for j in range(i + 1, n):
                assert tom.matrix[i][j] == 0
            h = lat.class_rep(i)
            assert tom.matrix[i][i] == normalizer(g, h).order // h.order
        for i in range(n):
            a = BurnsideElement.basis(g, ZZ, i)
            for j in range(n):
                b = BurnsideElement.basis(g, ZZ, j)
                ab = multiply(a, b)
                for label in lat.labels():
                    assert mark(ab, label) == mark(a, label) * mark(b, label)
    _report(7, "marks: gamma marks, triangularity, multiplicativity", t0, 10)


def test_criterion_8_oracle_equivalence():
    t0 = time.monotonic()
    for spec in IDEMPOTENT_GROUPS:
        g = build_group(spec)
        lat = subgroup_lattice(g)
        n = lat.class_count
        for i in range(n):
            for j in range(n):
                fresh = decompose(product(transitive(g, lat.class_rep(i)),
                                          transitive(g, lat.class_rep(j))))
                expect = {lat.class_index_of_label(lbl): m
                          for lbl, m in fresh.multiplicities().items()}
                assert structure_constants(g, i, j) == expect
    rng = random.Random(52876)
    for _ in range(100):
        m = rng.randint(2, 8)
        a = [[rng.randint(0, m - 1) for _ in range(3)] for _ in range(3)]
        b = [rng.randint(0, m - 1) for _ in range(3)]
        expected = enumerate_modular_solutions(a, b, m)
        res = solve_linear(Matrix.from_rows(Zmod(m), a), b)
        if not expected:
            assert isinstance(res, NoSolution)
        else:
            assert isinstance(res, Solution)
            span = span_closure_mod(res.kernel, m, 3)
            got = {tuple((p + s) % m for p, s in zip(res.particular, off))
                   for off in span}
            assert got == expected
    _report(8, "structure constants and modular solver oracles", t0, 30)


def test_casimir_witness_of_c2_to_the_fourth_over_q():
    """(C2)^4 has 67 subgroup classes; its witness is checked in integers."""
    g = build_group("prod(C2,prod(C2,prod(C2,C2)))")
    verdict = ring_separability(g, QQ)
    assert verdict.separable
    assert verify_casimir(verdict.witness)
