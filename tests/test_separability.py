import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnside.algebra import (
    BurnsideElement,
    identity_element,
    idempotent_system,
    invert,
    multiply,
)
from burnside.errors import (
    InternalInconsistencyError,
    NotInvertibleError,
    ResourceBoundError,
    RingMismatchError,
)
from burnside.groups import (
    Subgroup,
    build_group,
    cubed,
    squared,
    subgroup_lattice,
    subgroups_conjugate,
)
from burnside.gsets import induce_along, iso_equal
from burnside.rings import QQ, ZZ, Solution, Zmod, solve_linear
import burnside.algebra
import burnside.groups
import burnside.gsets
import burnside.separability
from burnside.separability import (
    TensorElement,
    _embed_d13,
    _commutant_from_clusters,
    _componentwise_conjugate,
    _embed_delta_g,
    _inner_automorphisms,
    _stabilizer_clusters,
    _triples,
    casimir_from_idempotents,
    casimir_linear_system,
    commutant_basis,
    derivation_space,
    functor_separability,
    leibniz_system,
    ring_separability,
    satisfies_leibniz,
    tensor_act_left,
    tensor_act_right,
    tensor_mu,
    verify_casimir,
)

from burnside.bisets import product_of

from helpers import (
    fraction_tensor_act_left,
    fraction_tensor_act_right,
    fraction_tensor_mu,
    fraction_verify_casimir,
    induced_stabilizer_clusters,
)


def _tensor_basis(g, ring, i, j):
    n = subgroup_lattice(g).class_count
    m = [[ring.zero] * n for _ in range(n)]
    m[i][j] = ring.one
    return TensorElement(g, ring, m)


def test_tensor_identity_acts_trivially():
    c2 = build_group("C2")
    u = _tensor_basis(c2, ZZ, 0, 1)
    one = identity_element(c2, ZZ)
    assert tensor_act_left(one, u) == u
    assert tensor_act_right(u, one) == u


def test_tensor_left_action_example():
    # [C2/1] * ([C2/1] (x) [C2/C2]) = 2 [C2/1] (x) [C2/C2]
    c2 = build_group("C2")
    free = BurnsideElement.basis(c2, ZZ, 0)
    u = _tensor_basis(c2, ZZ, 0, 1)
    got = tensor_act_left(free, u)
    assert got.matrix == ((0, 2), (0, 0))
    # on the right factor: [C2/C2] * [C2/1] = [C2/1]
    got_r = tensor_act_right(u, free)
    assert got_r.matrix == ((1, 0), (0, 0))


def test_tensor_free_action_s3():
    # [G/1] . ([G/H] (x) y) = |G:H| [G/1] (x) y
    s3 = build_group("S3")
    lat = subgroup_lattice(s3)
    free = BurnsideElement.basis(s3, ZZ, 0)
    for hi in range(lat.class_count):
        h = lat.class_rep(hi)
        u = _tensor_basis(s3, ZZ, hi, 2)
        got = tensor_act_left(free, u)
        expect = [[0] * lat.class_count for _ in range(lat.class_count)]
        expect[0][2] = s3.order // h.order
        assert got.matrix == tuple(tuple(r) for r in expect)


def test_tensor_mu_examples():
    c2 = build_group("C2")
    assert tensor_mu(_tensor_basis(c2, ZZ, 1, 1)) == identity_element(c2, ZZ)
    assert tensor_mu(_tensor_basis(c2, ZZ, 0, 0)) == \
        BurnsideElement.basis(c2, ZZ, 0).scale(2)


@pytest.mark.parametrize("spec", ["C1", "C2", "C3", "S3", "D8"])
def test_mu_of_idempotent_square_sum(spec):
    g = build_group(spec)
    u = casimir_from_idempotents(g, QQ)
    assert tensor_mu(u) == identity_element(g, QQ)


def test_casimir_c1():
    c1 = build_group("C1")
    u = casimir_from_idempotents(c1, ZZ)
    assert u.matrix == ((1,),)
    assert verify_casimir(u)


def test_casimir_c2_expansions():
    c2 = build_group("C2")
    # e_1 = (1/2)[C2/1], e_C2 = [C2/C2] - (1/2)[C2/1]; u = sum of e (x) e
    u = casimir_from_idempotents(c2, QQ)
    assert u.matrix == ((Fraction(1, 2), Fraction(-1, 2)),
                        (Fraction(-1, 2), Fraction(1)))
    u3 = casimir_from_idempotents(c2, Zmod(3))
    assert u3.matrix == ((2, 1), (1, 1))
    assert verify_casimir(u)
    assert verify_casimir(u3)


def test_casimir_requires_unit_order():
    with pytest.raises(NotInvertibleError):
        casimir_from_idempotents(build_group("C2"), ZZ)


def test_verify_casimir_rejects_identity_tensor():
    # [G/G] (x) [G/G] has mu = [G/G] but fails centrality at x = [C2/1]:
    # left gives [C2/1] (x) [C2/C2], right gives [C2/C2] (x) [C2/1]
    c2 = build_group("C2")
    u = _tensor_basis(c2, ZZ, 1, 1)
    x = BurnsideElement.basis(c2, ZZ, 0)
    left = tensor_act_left(x, u)
    right = tensor_act_right(u, x)
    assert left.matrix == ((0, 1), (0, 0))
    assert right.matrix == ((0, 0), (1, 0))
    assert not verify_casimir(u)


def test_verify_casimir_s3_over_q():
    assert verify_casimir(casimir_from_idempotents(build_group("S3"), QQ))


def test_ring_separability_c2():
    c2 = build_group("C2")
    v = ring_separability(c2, ZZ)
    assert not v.separable
    assert v.obstruction["kind"] == "linear_obstruction"
    assert v.obstruction["non_unit_order"] == {"order": 2, "ring": "Z"}
    assert v.obstruction["certificate"]["kind"] == "invariant_factor"

    v3 = ring_separability(c2, Zmod(3))
    assert v3.separable
    assert verify_casimir(v3.witness)

    v1 = ring_separability(build_group("C1"), ZZ)
    assert v1.separable
    assert v1.witness.matrix == ((1,),)


def test_ring_separability_grid():
    for spec in ("C2", "C3", "S3"):
        g = build_group(spec)
        rings = [ZZ, QQ] + [Zmod(m) for m in range(2, 13)]
        for ring in rings:
            v = ring_separability(g, ring)
            assert v.separable == ring.is_unit(ring.from_int(g.order))
            if v.separable:
                assert verify_casimir(v.witness)
            else:
                cert = v.obstruction["certificate"]
                assert cert["kind"] in ("invariant_factor", "lifted_congruence",
                                        "rank_mismatch")


def test_casimir_system_has_solutions_when_order_is_unit():
    # the idempotent witness satisfies the assembled linear system
    g = build_group("C3")
    ring = Zmod(5)
    matrix, rhs = casimir_linear_system(g, ring)
    res = solve_linear(matrix, rhs)
    assert isinstance(res, Solution)
    u = casimir_from_idempotents(g, ring)
    n = subgroup_lattice(g).class_count
    flat = [u.matrix[i][j] for i in range(n) for j in range(n)]
    for row, b in zip(matrix.entries, rhs):
        acc = ring.zero
        for c, x in zip(row, flat):
            acc = ring.add(acc, ring.mul(c, x))
        assert acc == b
    # the row layout is pinned: solver certificates and derivation bases
    # depend on the exact rows, their order and the right-hand sides
    for spec, digest in (("S3", "30c582e31e6286d0"), ("S4", "e1415d23d97fb991")):
        matrix, rhs = casimir_linear_system(build_group(spec), ZZ)
        assert _layout_digest([matrix.entries, rhs]) == digest, spec


def _layout_digest(x):
    return hashlib.sha256(json.dumps(x).encode()).hexdigest()[:16]


def test_solver_outputs_are_pinned():
    # certificates and kernel spanning sets, taken before the elimination
    # went sparse: each depends on every pivot, swap and quotient of the solve
    for spec, ring, digest in (("S4", ZZ, "94015416c8e76992"),
                               ("S4", Zmod(6), "698d67d2c37ed261")):
        verdict = ring_separability(build_group(spec), ring)
        assert _layout_digest(verdict.obstruction["certificate"]) == digest, \
            (spec, ring.spec)
    for spec, ring, digest in (("S4", ZZ, "4f53cda18c2baa0c"),
                               ("S4", Zmod(4), "d4a51d277e4bc40d"),
                               ("prod(C2,prod(C2,C2))", Zmod(2), "02c37cbe2d5cd4ed")):
        matrix = leibniz_system(build_group(spec), ring)
        res = solve_linear(matrix, [ring.zero] * matrix.rows)
        assert _layout_digest(res.kernel) == digest, (spec, ring.spec)


def test_functor_separability_examples():
    s3 = build_group("S3")
    v = functor_separability(s3, QQ)
    assert v.separable
    assert multiply(v.gamma, v.gamma_inverse) == identity_element(s3, QQ)

    c2 = build_group("C2")
    vz = functor_separability(c2, ZZ)
    assert not vz.separable
    assert vz.obstruction["stage"] == "non_unit_mark"
    assert "2" in vz.obstruction["detail"]

    v3 = functor_separability(c2, Zmod(3))
    assert v3.separable
    assert v3.gamma_inverse.coeffs == {1: 2}  # 2[C2/C2], self-inverse mod 3


def test_functor_separability_grid():
    for spec in ("C2", "C3", "S3"):
        g = build_group(spec)
        for ring in [ZZ, QQ] + [Zmod(m) for m in range(2, 13)]:
            v = functor_separability(g, ring)
            assert v.separable == ring.is_unit(ring.from_int(g.order))
            if v.separable:
                assert multiply(v.gamma, v.gamma_inverse) == \
                    identity_element(g, ring)
                assert invert(v.gamma) == v.gamma_inverse


def test_commutant_c1():
    c1 = build_group("C1")
    res = commutant_basis(c1, QQ)
    assert res.dimension == 1
    assert res.matches_diagonal_span
    gg = res.solutions[0].group
    assert subgroup_lattice(gg).class_count == 1


@pytest.mark.parametrize("spec,expected_dim", [("C2", 2), ("C3", 2), ("S3", 4)])
def test_commutant_dimension_over_q(spec, expected_dim):
    g = build_group(spec)
    res = commutant_basis(g, QQ)
    assert res.dimension == expected_dim
    assert res.dimension == subgroup_lattice(g).class_count
    assert res.matches_diagonal_span
    diag = set(res.diagonal_class_indices)
    for sol in res.solutions:
        assert set(sol.coeffs) <= diag


@pytest.mark.parametrize("spec", ["C2", "C3"])
def test_commutant_sufficiency_by_explicit_sets(spec):
    # each diagonal class [GG/Delta(L)] literally induces to the same
    # G^3-set on both sides
    g = build_group(spec)
    gg = squared(g)
    ggg = product_of([g, g, g])
    lat_g = subgroup_lattice(g)
    lat_gg = subgroup_lattice(gg)
    n = g.order
    for cj in range(lat_g.class_count):
        rep = lat_g.class_rep(cj)
        members = [x * n + x for x in rep.members]
        ci = lat_gg.class_of[lat_gg.subgroup_index(members)]
        from burnside.algebra import transitive_of_class
        x = transitive_of_class(gg, ci)
        left = induce_along(x, _embed_delta_g(g), ggg)
        right = induce_along(x, _embed_d13(g), ggg)
        assert iso_equal(left, right)


def test_commutant_over_z_and_modular():
    g = build_group("C2")
    for ring in (ZZ, Zmod(2), Zmod(6)):
        res = commutant_basis(g, ring)
        assert res.matches_diagonal_span
        diag = set(res.diagonal_class_indices)
        for sol in res.solutions:
            assert set(sol.coeffs) <= diag


def test_commutant_resource_bound():
    # base order 16 is the first whose square exceeds the group order bound
    with pytest.raises(ResourceBoundError):
        commutant_basis(build_group("D16"), QQ)


@pytest.mark.parametrize("spec", ["C1", "C2", "C3", "C4", "C5", "C6", "S3",
                                  "prod(C2,C2)", "prod(C2,C3)"])
def test_commutant_matches_explicit_induction(spec):
    g = build_group(spec)
    gg = squared(g)
    cls_of = induced_stabilizer_clusters(g)
    assert _stabilizer_clusters(g, gg) == cls_of
    for ring in (QQ, ZZ, Zmod(2), Zmod(6)):
        assert commutant_basis(g, ring) == \
            _commutant_from_clusters(g, gg, ring, cls_of)


@pytest.mark.parametrize("spec,digest", [
    ("D8", "96c68fec324ecb64dd82c13f0ba6fc835e6a0ca1f707a6d4a1f59e7b220b550f"),
    ("Q8", "ed14f972251f61390cfd1462be4eebd9d86938729403f6ba4d114ba5c0ccc5be"),
    ("D12", "01744f2311ca0ecde4abdc4819b65196d1603a949f05012c8a6842d104054f58"),
    ("prod(C2,prod(C2,C2))",
     "45de7e722569ac71459814ea7da99fd134cc3969cfe47cfabb5e18cc6b0b2597"),
])
def test_stabilizer_clusters_digest(spec, digest):
    # G^3 is too large for the explicit-induction oracle here, so the
    # cluster lists are pinned as the element-order bucketing gave them
    g = build_group(spec)
    cls_of = _stabilizer_clusters(g, squared(g))
    assert hashlib.sha256(json.dumps(cls_of).encode()).hexdigest() == digest


def test_componentwise_conjugacy_matches_conjugacy_in_the_cube():
    # psi1(K) and psi2(K) of two class representatives are conjugate only
    # when equal, so random conjugates of them are compared as well
    rng = random.Random(8)
    g = build_group("S3")
    n = g.order
    ggg = cubed(g)
    inner = _inner_automorphisms(g)
    lat_gg = subgroup_lattice(squared(g))
    images = [_triples(g, psi, lat_gg.class_rep(ci).members)
              for ci in range(lat_gg.class_count)
              for psi in (_embed_delta_g(g), _embed_d13(g))]
    moved = []
    for s in images:
        x, y, z = (rng.randrange(n) for _ in range(3))
        moved.append(frozenset((g.conj(x, a), g.conj(y, b), g.conj(z, c))
                               for a, b, c in s))

    def in_cube(s):
        return Subgroup(ggg, (a * n * n + b * n + c for a, b, c in s))

    assert moved != images
    for s in images:
        for t in moved:
            assert _componentwise_conjugate(inner, s, t) == \
                subgroups_conjugate(ggg, in_cube(s), in_cube(t))


@pytest.mark.parametrize("spec,count", [("C4", 1), ("prod(C2,C3)", 1),
                                        ("S3", 6), ("D8", 4), ("Q8", 4),
                                        ("D12", 6)])
def test_one_conjugator_per_inner_automorphism(spec, count):
    # |G : Z(G)| conjugators, so an abelian base needs the identity alone
    assert len(_inner_automorphisms(build_group(spec))) == count


def test_commutant_builds_no_cube_and_no_gset(monkeypatch):
    g = build_group("S3")
    bound = g.order ** 2
    group_init = burnside.groups.Group.__init__

    def small_group_init(self, mul, *args, **kwargs):
        if len(mul) > bound:
            raise AssertionError(f"built a group of order {len(mul)}")
        group_init(self, mul, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("built a G-set")

    monkeypatch.setattr(burnside.groups.Group, "__init__", small_group_init)
    monkeypatch.setattr(burnside.groups, "cubed", refuse)
    monkeypatch.setattr(burnside.gsets.GSet, "__init__", refuse)
    monkeypatch.setattr(burnside.gsets, "induce", refuse)
    res = commutant_basis(g, QQ)
    assert res.dimension == 4 and res.matches_diagonal_span


def test_derivation_space_zero_cases():
    for spec, ring in [("S3", ZZ), ("C4", ZZ), ("C2", ZZ), ("C3", Zmod(5)),
                       ("S4", QQ), ("D8", QQ), ("prod(C2,prod(C2,C2))", QQ)]:
        d = derivation_space(build_group(spec), ring)
        assert d.is_zero()


@pytest.mark.parametrize("spec", ["S4", "prod(C2,D8)"])
def test_integer_derivations_come_from_the_rational_solve(spec, monkeypatch):
    import burnside.rings

    def refuse(*args, **kwargs):
        raise AssertionError("derivations over Z reached the Smith form")

    monkeypatch.setattr(burnside.rings, "_snf_int", refuse)
    d = derivation_space(build_group(spec), ZZ)
    assert d.is_zero() and d.ring == ZZ


@pytest.mark.parametrize("spec", ["S3", "S4", "D16", "prod(S3,S3)"])
def test_unit_order_derivations_solve_no_system(spec, monkeypatch):
    # a separable commutative algebra has no derivation but 0, and over Z
    # every derivation is a rational one: the Casimir check decides
    def refuse(*args, **kwargs):
        raise AssertionError("derivations with |G| a unit reached the solver")

    monkeypatch.setattr(burnside.separability, "leibniz_system", refuse)
    monkeypatch.setattr(burnside.separability, "solve_linear", refuse)
    g = build_group(spec)
    for ring in (ZZ, QQ, Zmod(5), Zmod(7), Zmod(35)):
        d = derivation_space(g, ring)
        assert d.is_zero() and d.ring == ring and d.group is g


def test_unit_order_derivations_keep_the_casimir_check(monkeypatch):
    monkeypatch.setattr(burnside.separability, "verify_casimir",
                        lambda u: False)
    for ring in (ZZ, QQ, Zmod(5)):
        with pytest.raises(InternalInconsistencyError, match="Casimir"):
            derivation_space(build_group("S3"), ring)


@pytest.mark.parametrize("spec", ["S3", "C4", "D8", "Q8", "prod(C2,C2)"])
@pytest.mark.parametrize("ring", [QQ, Zmod(5), Zmod(7), Zmod(35)],
                         ids=lambda r: r.spec)
def test_leibniz_kernel_is_empty_when_the_order_is_a_unit(spec, ring):
    # the elimination the Casimir check replaced, kept as the oracle
    g = build_group(spec)
    assert ring.is_unit(ring.from_int(g.order))
    matrix = leibniz_system(g, ring)
    res = solve_linear(matrix, [ring.zero] * matrix.rows)
    assert isinstance(res, Solution) and res.kernel == []
    assert derivation_space(g, ring).is_zero()


def test_derivation_space_modular_nonzero():
    c2 = build_group("C2")
    d2 = derivation_space(c2, Zmod(2))
    assert not d2.is_zero()
    assert ((1, 0), (0, 0)) in d2.basis  # d([C2/1]) = [C2/1], d([C2/C2]) = 0
    for m in d2.basis:
        assert satisfies_leibniz(c2, Zmod(2), m)

    c3 = build_group("C3")
    d3 = derivation_space(c3, Zmod(3))
    assert not d3.is_zero()
    for m in d3.basis:
        assert satisfies_leibniz(c3, Zmod(3), m)


@pytest.mark.parametrize("spec", ["C2", "C3", "C4", "S3", "prod(C2,C2)"])
def test_derivations_satisfy_leibniz(spec):
    g = build_group(spec)
    for ring in (Zmod(2), Zmod(3), Zmod(4), Zmod(6)):
        for m in derivation_space(g, ring).basis:
            assert satisfies_leibniz(g, ring, m)


def test_derivations_kill_scaled_idempotents_without_torsion():
    # v_H = |G| e_H has integer coefficients and d(v_H) = 0 whenever the
    # ring has no |G|-torsion
    for spec in ("C2", "C3", "S3"):
        g = build_group(spec)
        idems = idempotent_system(g, QQ)
        vs = []
        for e in idems:
            coeffs = {}
            for k, v in e.coeffs.items():
                scaled = v * g.order
                assert scaled.denominator == 1
                coeffs[k] = int(scaled)
            vs.append(coeffs)
        for m_mod in (5, 7, 11):
            if gcd(m_mod, g.order) != 1:
                continue
            ring = Zmod(m_mod)
            n = subgroup_lattice(g).class_count
            for dmat in derivation_space(g, ring).basis:
                for coeffs in vs:
                    image = [ring.zero] * n
                    for k, v in coeffs.items():
                        for j in range(n):
                            image[j] = ring.add(
                                image[j],
                                ring.mul(ring.from_int(v), dmat[k][j]))
                    assert all(ring.is_zero(x) for x in image)


def test_leibniz_system_shape():
    g = build_group("S3")
    m = leibniz_system(g, ZZ)
    n = subgroup_lattice(g).class_count
    assert m.cols == n * n
    assert _layout_digest(m.entries) == "d4e94d749797e02d"
    assert _layout_digest(leibniz_system(build_group("S4"), ZZ).entries) \
        == "1c91d6170fdd957f"


# -- the integer tensor code against the ring-generic Fraction oracle ---------

def _random_value(rnd, ring):
    if ring == QQ:  # mixed denominators, so the lift has a real lcm
        return Fraction(rnd.randint(-9, 9), rnd.choice([1, 2, 3, 4, 5, 6, 7, 9, 10]))
    return ring.from_int(rnd.randrange(ring.m))


@pytest.mark.parametrize("spec", ["S3", "D8", "prod(C2,C2)"])
@pytest.mark.parametrize("ring", [QQ, Zmod(5), Zmod(7), Zmod(6), Zmod(35)],
                         ids=lambda r: r.spec)
def test_tensor_code_matches_fraction_oracle_on_random_tensors(spec, ring):
    g = build_group(spec)
    n = subgroup_lattice(g).class_count
    rnd = random.Random(n * 100 + getattr(ring, "m", 0))
    for _ in range(4):
        u = TensorElement(g, ring, [[_random_value(rnd, ring) for _ in range(n)]
                                    for _ in range(n)])
        x = BurnsideElement(g, ring, {i: _random_value(rnd, ring) for i in range(n)})
        assert tensor_act_left(x, u) == fraction_tensor_act_left(x, u)
        assert tensor_act_right(u, x) == fraction_tensor_act_right(u, x)
        assert tensor_mu(u) == fraction_tensor_mu(u)
        assert verify_casimir(u) == fraction_verify_casimir(u)


@pytest.mark.parametrize("spec", ["S3", "D8", "S4", "prod(C2,C2)"])
@pytest.mark.parametrize("ring", [QQ, Zmod(5), Zmod(7), Zmod(35)],
                         ids=lambda r: r.spec)
def test_verify_casimir_matches_fraction_oracle_on_witnesses(spec, ring):
    g = build_group(spec)
    n = subgroup_lattice(g).class_count
    u = casimir_from_idempotents(g, ring)
    expected = [[ring.zero] * n for _ in range(n)]  # sum of e_H (x) e_H
    for e in idempotent_system(g, ring):
        for i, ci in e.coeffs.items():
            for j, cj in e.coeffs.items():
                expected[i][j] = ring.add(expected[i][j], ring.mul(ci, cj))
    assert u == TensorElement(g, ring, expected)

    step = Fraction(1, 11) if ring == QQ else ring.one
    cases = [(u, True)]
    for i, j in [(0, 0), (n // 2, n - 1), (n - 1, n - 1)]:
        bumped = [list(row) for row in u.matrix]
        bumped[i][j] = ring.add(bumped[i][j], step)
        cases.append((TensorElement(g, ring, bumped), False))
    two = ring.from_int(2)  # still central, but mu(2u) = 2 [G/G]
    cases.append((TensorElement(g, ring, [[ring.mul(two, c) for c in row]
                                          for row in u.matrix]), False))
    for t, verdict in cases:
        assert verify_casimir(t) == fraction_verify_casimir(t) == verdict


def test_casimir_build_and_check_use_neither_action_nor_idempotents(monkeypatch):
    # both work on the ghost square alone: the witness maps back from
    # |G|^2 * I, and the check compares the ghost square with d * I
    def refuse(*args, **kwargs):
        raise AssertionError("left the ghost square")

    for name in ("tensor_act_left", "tensor_act_right", "idempotent_system"):
        monkeypatch.setattr(burnside.separability, name, refuse)
    monkeypatch.setattr(burnside.algebra, "idempotent_system", refuse)
    for spec, ring in [("S4", QQ), ("D8", Zmod(35)), ("S3", Zmod(5))]:
        u = casimir_from_idempotents(build_group(spec), ring)
        assert verify_casimir(u)
        assert not verify_casimir(TensorElement(u.group, ring, [
            [ring.add(c, ring.one) for c in row] for row in u.matrix]))


# ladder groups of order <= 24; prod(D8,C2) is left out, since a negative
# verdict over a composite modulus solves its Casimir system in about a minute
LADDER_SPECS = ("C1", "C2", "C3", "C4", "prod(C2,C2)", "S3", "C6", "D8", "Q8",
                "prod(C2,prod(C2,C2))", "D10", "D12", "D16", "S4")


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(spec=st.sampled_from(LADDER_SPECS), m=st.integers(2, 60),
       pos=st.integers(0, 2**16))
def test_ring_separability_verdict_and_witness_property(spec, m, pos):
    g, ring = build_group(spec), Zmod(m)
    v = ring_separability(g, ring)
    assert v.separable == (gcd(g.order, m) == 1)
    if v.separable:
        assert verify_casimir(v.witness)
        n = len(v.witness.matrix)
        bumped = [list(row) for row in v.witness.matrix]
        i, j = divmod(pos % (n * n), n)
        bumped[i][j] = ring.add(bumped[i][j], ring.one)
        assert not verify_casimir(TensorElement(g, ring, bumped))


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=lambda r: r.spec)
def test_tensor_code_refuses_non_integral_entries(ring):
    s3 = build_group("S3")
    n = subgroup_lattice(s3).class_count
    m = [[ring.zero] * n for _ in range(n)]
    m[0][1] = Fraction(1, 2)
    u = TensorElement(s3, ring, m)
    one = identity_element(s3, ring)
    for op in (lambda: tensor_act_left(one, u), lambda: tensor_act_right(u, one),
               lambda: tensor_mu(u), lambda: verify_casimir(u)):
        with pytest.raises(RingMismatchError):
            op()
