"""Dual-route checks that pit independent algorithms against each other."""

import sys
import threading
from fractions import Fraction

import pytest

from burnside.algebra import (
    BurnsideElement,
    idempotent_system,
    multiply,
    structure_constants,
    table_of_marks,
)
from burnside.bisets import diagonal_merge_gsets, identity_biset, product_of
from burnside.groups import build_group, squared, subgroup_lattice
from burnside.gsets import (
    conjugation_gset,
    induce_along,
    iso_equal,
    orbits,
    product,
    regular,
    transitive,
)
from burnside.rings import QQ, Matrix, Solution

from helpers import _embed_d13, _embed_delta_g, bareiss_det, dense_solve_rational

GROUPS = ["C1", "C2", "C3", "C4", "prod(C2,C2)", "S3", "D8", "Q8"]


@pytest.mark.parametrize("spec", GROUPS)
def test_idempotents_match_ghost_route(spec):
    # solve marks(e) = indicator directly over Q and compare with the
    # Moebius-sum construction
    g = build_group(spec)
    lat = subgroup_lattice(g)
    tom = table_of_marks(g)
    n = lat.class_count
    mt = [[Fraction(tom.matrix[k][j]) for k in range(n)] for j in range(n)]
    idems = idempotent_system(g, QQ)
    for i in range(n):
        rhs = [Fraction(1) if j == i else Fraction(0) for j in range(n)]
        res = dense_solve_rational(Matrix.from_rows(QQ, mt), rhs)
        assert isinstance(res, Solution) and not res.kernel
        assert BurnsideElement(g, QQ, dict(enumerate(res.particular))) == idems[i]


@pytest.mark.parametrize("spec", GROUPS)
def test_marks_matrix_invertible_over_q(spec):
    tom = table_of_marks(build_group(spec))
    assert bareiss_det([list(r) for r in tom.matrix]) != 0


@pytest.mark.parametrize("spec", GROUPS)
def test_burnside_orbit_counting_lemma(spec):
    # |X/G| = average number of fixed points of the elements
    g = build_group(spec)
    for x in (regular(g), conjugation_gset(g),
              product(regular(g), conjugation_gset(g))):
        fixed_total = sum(
            sum(1 for p in x.points() if x.action[a][p] == p)
            for a in g.elements())
        assert fixed_total == len(orbits(x)) * g.order


def test_s4_lattice_classical_counts():
    g = build_group("S4")
    lat = subgroup_lattice(g)
    assert len(lat.subgroups) == 30
    assert lat.class_count == 11
    by_order = {}
    for s in lat.subgroups:
        by_order[s.order] = by_order.get(s.order, 0) + 1
    assert by_order == {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}


def test_s4_full_pipeline_smoke():
    # a larger end-to-end case: 11 classes, 726-row Leibniz system
    from burnside.algebra import identity_element, invert
    from burnside.bisets import gamma
    from burnside.rings import ZZ, Zmod
    from burnside.separability import (
        derivation_space,
        ring_separability,
        satisfies_leibniz,
        verify_casimir,
    )

    g = build_group("S4")
    one = identity_element(g, QQ)
    gam = gamma(g, QQ)
    assert multiply(gam, invert(gam)) == one
    v = ring_separability(g, Zmod(5))
    assert v.separable and verify_casimir(v.witness)
    assert not ring_separability(g, Zmod(6)).separable
    assert derivation_space(g, ZZ).is_zero()
    d2 = derivation_space(g, Zmod(2))
    assert not d2.is_zero()
    for m in d2.basis[:3]:
        assert satisfies_leibniz(g, Zmod(2), m)


def test_c3_diagonal_merge_matches_inductions():
    # same two one-sided identities as for C2, over the 27-element cube
    g = build_group("C3")
    gg = squared(g)
    ggg = product_of([g, g, g])
    lat = subgroup_lattice(gg)
    u_carrier = identity_biset(g).carrier.rehomed(gg)
    for ci in range(lat.class_count):
        m = transitive(gg, lat.class_rep(ci))
        lhs1 = diagonal_merge_gsets(u_carrier, m, 1, 0,
                                    layout=[("a", 0), "shared", ("b", 1)])
        rhs1 = induce_along(m, _embed_delta_g(g), ggg)
        assert iso_equal(lhs1.rehomed(rhs1.group), rhs1)
        lhs2 = diagonal_merge_gsets(m, u_carrier, 1, 1,
                                    layout=[("b", 0), ("a", 0), "shared"])
        rhs2 = induce_along(m, _embed_d13(g), ggg)
        assert iso_equal(lhs2.rehomed(rhs2.group), rhs2)


def test_iso_equal_transitivity_on_sample():
    from burnside.gsets import disjoint_union
    g = build_group("S3")
    lat = subgroup_lattice(g)
    sets = [transitive(g, lat.class_rep(ci)) for ci in range(lat.class_count)]
    sets.append(product(sets[0], sets[1]))
    sets.append(disjoint_union(sets[0], disjoint_union(sets[1], sets[1])))
    sets.append(disjoint_union(disjoint_union(sets[1], sets[0]), sets[1]))
    for a in sets:
        for b in sets:
            for c in sets:
                if iso_equal(a, b) and iso_equal(b, c):
                    assert iso_equal(a, c)


def test_concurrent_reads_agree():
    # the lattice record is the only shared cache; many parallel callers on
    # a group nobody has built yet, switching threads as often as possible,
    # must all see one lattice and identical results
    from burnside.rings import QQ
    g = build_group("perm:(1 2 3 4 5);(2 5)(3 4)")  # a fresh copy of D10
    results = []
    errors = []

    def work():
        try:
            lat = subgroup_lattice(g)
            n = lat.class_count
            a = BurnsideElement(g, QQ, {i: Fraction(i + 1, 3) for i in range(n)})
            b = BurnsideElement(g, QQ, {i: Fraction(-1, i + 2) for i in range(n)})
            results.append((lat, table_of_marks(g).matrix, multiply(a, b).coeffs,
                            [structure_constants(g, i, j)
                             for i in range(n) for j in range(n)]))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(results) == 16
    assert len({id(r[0]) for r in results}) == 1
    assert all(r[1:] == results[0][1:] for r in results)
