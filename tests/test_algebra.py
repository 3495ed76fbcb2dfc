import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from burnside.algebra import (
    BurnsideElement,
    NotInvertible,
    identity_element,
    idempotent,
    idempotent_system,
    invert,
    lower,
    mark,
    marks_vector,
    mult_matrix,
    multiply,
    structure_constants,
    table_of_marks,
)
from burnside.bisets import gamma
from burnside.errors import (
    BadLabelError,
    GroupMismatchError,
    NotContainedError,
    NotInvertibleError,
    RingMismatchError,
)
from burnside.groups import (
    SubgroupLattice,
    build_group,
    normalizer,
    subgroup_lattice,
)
from burnside.gsets import decompose, fixed_points, product, transitive
from burnside.rings import QQ, ZZ, Matrix, Solution, Zmod, solve_linear
from helpers import dense_solve_rational, idempotent_by_full_scan

TEST_SPECS = ["C1", "C2", "C3", "C4", "prod(C2,C2)", "S3", "D8"]


def test_tom_c2_and_c1():
    assert table_of_marks(build_group("C2")).matrix == ((2, 0), (1, 1))
    assert table_of_marks(build_group("C1")).matrix == ((1,),)


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_tom_triangular_with_normalizer_diagonal(spec):
    g = build_group(spec)
    lat = subgroup_lattice(g)
    tom = table_of_marks(g)
    n = lat.class_count
    for i in range(n):
        for j in range(i + 1, n):
            assert tom.matrix[i][j] == 0
        h = lat.class_rep(i)
        assert tom.matrix[i][i] == normalizer(g, h).order // h.order


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_marks_are_ring_homomorphisms(spec):
    g = build_group(spec)
    lat = subgroup_lattice(g)
    n = lat.class_count
    for i in range(n):
        a = BurnsideElement.basis(g, ZZ, i)
        for j in range(n):
            b = BurnsideElement.basis(g, ZZ, j)
            ab = multiply(a, b)
            for label in lat.labels():
                assert mark(ab, label) == mark(a, label) * mark(b, label)


def test_mark_examples():
    s3 = build_group("S3")
    free = BurnsideElement.basis(s3, ZZ, 0)
    assert mark(free, "1#1") == 6
    one = identity_element(s3, ZZ)
    for label in subgroup_lattice(s3).labels():
        assert mark(one, label) == 1
    gam = gamma(s3)
    assert mark(gam, "2#1") == 2  # the centralizer order of an involution


def test_mark_bad_label():
    with pytest.raises(BadLabelError):
        mark(identity_element(build_group("C2"), ZZ), "3#1")


def test_multiply_identity_and_free():
    c2 = build_group("C2")
    free = BurnsideElement.basis(c2, ZZ, 0)
    one = identity_element(c2, ZZ)
    assert multiply(one, free) == free
    assert multiply(free, free) == free.scale(2)

    s3 = build_group("S3")
    lat = subgroup_lattice(s3)
    free3 = BurnsideElement.basis(s3, ZZ, 0)
    for ci in range(lat.class_count):
        h = lat.class_rep(ci)
        a = BurnsideElement.basis(s3, ZZ, ci)
        assert multiply(free3, a) == free3.scale(s3.order // h.order)


def test_multiply_mismatch_errors():
    a = identity_element(build_group("C2"), ZZ)
    b = identity_element(build_group("C3"), ZZ)
    with pytest.raises(GroupMismatchError):
        multiply(a, b)
    c = identity_element(build_group("C2"), QQ)
    with pytest.raises(RingMismatchError):
        multiply(a, c)


@pytest.mark.parametrize("ring", [ZZ, Zmod(6)], ids=lambda r: r.spec)
def test_non_integral_coefficient_is_refused_not_truncated(ring):
    s3 = build_group("S3")
    one = identity_element(s3, ring)
    half = BurnsideElement(s3, ring, {0: Fraction(1, 2)})
    for op in (lambda: multiply(half, one), lambda: multiply(one, half),
               lambda: mult_matrix(half), lambda: marks_vector(half)):
        with pytest.raises(RingMismatchError):
            op()
    # an integral Fraction is the integer it equals
    two = BurnsideElement(s3, ring, {0: Fraction(4, 2)})
    assert multiply(two, one) == BurnsideElement.basis(s3, ring, 0).scale(2)


def test_equal_residues_give_equal_elements():
    # multiply and marks_vector already treat 7, 2 and -3 alike mod 5
    s3 = build_group("S3")
    ring = Zmod(5)
    elements = [BurnsideElement(s3, ring, {0: c, 3: 1}) for c in (7, 2, -3)]
    assert all(a == elements[1] for a in elements)
    assert len({hash(a) for a in elements}) == 1
    assert all(a.coeffs == {0: 2, 3: 1} for a in elements)
    assert BurnsideElement(s3, ring, {0: 10, 3: 5}) == BurnsideElement.zero(s3, ring)


def test_equal_residues_give_equal_elements_from_fractions():
    # an integral Fraction is reduced like the int it equals
    s3 = build_group("S3")
    ring = Zmod(5)
    a = BurnsideElement(s3, ring, {0: Fraction(7)})
    b = BurnsideElement(s3, ring, {0: 2})
    assert a == b and hash(a) == hash(b)
    assert a.coeffs == {0: 2} and type(a.coeffs[0]) is int
    assert marks_vector(a) == marks_vector(b)
    zero = BurnsideElement(s3, ring, {0: Fraction(-10, 2)})
    assert zero == BurnsideElement.zero(s3, ring)


@pytest.mark.parametrize("ring", [QQ, ZZ, Zmod(5)], ids=lambda r: r.spec)
@pytest.mark.parametrize("bad", [0.5, 2.0, "1"])
def test_non_rational_coefficient_is_a_ring_mismatch(ring, bad):
    # a float or a string is refused as a ring mismatch, never read as a number
    s3 = build_group("S3")
    with pytest.raises(RingMismatchError):
        marks_vector(BurnsideElement(s3, ring, {0: bad}))


@pytest.mark.parametrize("ci", [-1, 4, 99])
def test_element_class_index_must_name_a_class(ci):
    # S3 has 4 classes, so 4 and 99 name none, and -1 must not count from the end
    s3 = build_group("S3")
    assert subgroup_lattice(s3).class_count == 4
    for coeffs in ({ci: 1}, {0: 1, ci: 2}):
        with pytest.raises(NotContainedError, match=f"^no subgroup class {ci} in S3$"):
            BurnsideElement(s3, ZZ, coeffs)
    assert BurnsideElement(s3, ZZ, {3: 1}) == identity_element(s3, ZZ)


@pytest.mark.parametrize("ci", [1.5, 1.0, "1", None])
def test_element_class_index_must_be_an_int(ci):
    # 1.5 was once stored and then broke render; "1" broke the sort
    s3 = build_group("S3")
    for coeffs in ({ci: 1}, {0: 1, ci: 2}):
        with pytest.raises(NotContainedError,
                           match=f"^subgroup class {ci!r} is not an int$"):
            BurnsideElement(s3, ZZ, coeffs)


def test_lower_honours_the_denominator():
    assert lower(QQ, [6, -4, 3], 4) == [Fraction(3, 2), -1, Fraction(3, 4)]
    assert lower(ZZ, [6, -4, 0], 2) == [3, -2, 0]
    assert lower(Zmod(7), [1, 3, -2], 2) == [4, 5, 6]
    # each fraction is reduced first: 6/4 = 3/2, and 9/3 = 3 over Z/6
    assert lower(Zmod(5), [6], 4) == [4]
    assert lower(Zmod(6), [9, 15], 3) == [3, 5]
    for ring, values, d in ((ZZ, [1], 2), (ZZ, [4, 3], 2), (Zmod(6), [1], 2),
                            (Zmod(6), [2], 4), (Zmod(4), [5], 6)):
        with pytest.raises(RingMismatchError):
            lower(ring, values, d)
    # d = 1, which every product passes off Q, is reduction into the ring
    assert lower(Zmod(6), [7, -1], 1) == [1, 5]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(m=st.integers(2, 60), d=st.integers(1, 200), sign=st.sampled_from((1, -1)),
       values=st.lists(st.integers(-10**6, 10**6), max_size=6))
def test_lower_by_one_inverse_matches_reduced_fractions(m, d, sign, values):
    # d prime to m: one inverse of d mod m serves every value, and it
    # gives what reducing each v/d and inverting its denominator gives
    assume(gcd(d, m) == 1)
    ring, d = Zmod(m), sign * d
    fracs = [Fraction(v, d) for v in values]
    assert lower(ring, values, d) == [
        ring.mul(f.numerator, ring.inv(ring.from_int(f.denominator)))
        for f in fracs]
    # over Z only d = +-1 is prime to 0, and it divides exactly
    assert lower(ZZ, values, sign) == [sign * v for v in values]


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_multiplication_commutative_associative(spec):
    g = build_group(spec)
    n = subgroup_lattice(g).class_count
    basis = [BurnsideElement.basis(g, ZZ, i) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            assert multiply(basis[i], basis[j]) == multiply(basis[j], basis[i])
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = multiply(multiply(basis[i], basis[j]), basis[k])
                right = multiply(basis[i], multiply(basis[j], basis[k]))
                assert left == right


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_structure_constants_match_fresh_gset_products(spec):
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


@pytest.mark.parametrize("spec", TEST_SPECS + ["S4", "D16", "prod(S3,S3)"])
def test_marks_match_fixed_points_of_transitive_sets(spec):
    # the lattice formula against the G-set route it replaces
    g = build_group(spec)
    lat = subgroup_lattice(g)
    tom = table_of_marks(g)
    n = lat.class_count
    for i in range(n):
        x = transitive(g, lat.class_rep(i))
        for j in range(n):
            assert tom.matrix[i][j] == fixed_points(x, lat.class_rep(j))


def _gset_constants(g):
    """(i, j) -> {l: multiplicity} from fresh products of transitive G-sets."""
    lat = subgroup_lattice(g)
    sets = [transitive(g, lat.class_rep(i)) for i in range(lat.class_count)]
    return {(i, j): {lat.class_index_of_label(lbl): m
                     for lbl, m in decompose(product(x, y)).multiplicities().items()}
            for i, x in enumerate(sets) for j, y in enumerate(sets)}


def _expand(constants, a, b):
    """a*b by bilinear expansion over the given structure constants."""
    ring = a.ring
    out = {}
    for i, ca in a.coeffs.items():
        for j, cb in b.coeffs.items():
            for l, m in constants[(i, j)].items():
                out[l] = ring.add(out.get(l, ring.zero),
                                  ring.mul(ring.mul(ca, cb), ring.from_int(m)))
    return BurnsideElement(a.group, ring, out)


@pytest.mark.parametrize("spec", ["S3", "D8", "prod(C2,C2)", "S4"])
def test_products_match_gset_expansion(spec):
    g = build_group(spec)
    n = subgroup_lattice(g).class_count
    constants = _gset_constants(g)
    rng = random.Random(spec)
    draws = {
        ZZ: lambda: rng.choice((-1, 1)) * rng.randint(1, 9),
        QQ: lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                             rng.randint(2, 9)),
        Zmod(6): lambda: rng.randint(1, 5),
    }
    for ring, draw in draws.items():
        basis = [BurnsideElement.basis(g, ring, j) for j in range(n)]
        for _ in range(3):
            a, b = (BurnsideElement(g, ring, {i: draw() for i in range(n)})
                    for _ in range(2))
            ab = multiply(a, b)
            assert ab == _expand(constants, a, b)
            assert all(type(v) is type(ring.one) for v in ab.coeffs.values())
            lm = mult_matrix(a)
            for j in range(n):
                col = _expand(constants, a, basis[j])
                assert [lm[l][j] for l in range(n)] == \
                    [col.coeffs.get(l, ring.zero) for l in range(n)]


def test_idempotent_values_c2():
    c2 = build_group("C2")
    e1 = idempotent(c2, "1#1", QQ)
    e2 = idempotent(c2, "2#1", QQ)
    assert e1.coeffs == {0: Fraction(1, 2)}
    assert e2.coeffs == {0: Fraction(-1, 2), 1: Fraction(1)}
    assert marks_vector(e1) == [Fraction(1), Fraction(0)]
    assert marks_vector(e2) == [Fraction(0), Fraction(1)]


@pytest.mark.parametrize("spec", TEST_SPECS)
def test_idempotent_system_over_q(spec):
    g = build_group(spec)
    lat = subgroup_lattice(g)
    idems = idempotent_system(g, QQ)
    one = identity_element(g, QQ)
    total = BurnsideElement.zero(g, QQ)
    for i, e in enumerate(idems):
        total = total.add(e)
        assert multiply(e, e) == e
        # marks pick out the class
        ms = marks_vector(e)
        assert ms == [QQ.one if j == i else QQ.zero
                      for j in range(lat.class_count)]
        for j, f in enumerate(idems):
            if j != i:
                assert multiply(e, f).is_zero()
    assert total == one


def test_idempotent_diagonalizes_multiplication():
    g = build_group("S3")
    lat = subgroup_lattice(g)
    idems = idempotent_system(g, QQ)
    for i, e in enumerate(idems):
        label = lat.labels()[i]
        for j in range(lat.class_count):
            a = BurnsideElement.basis(g, QQ, j)
            assert multiply(e, a) == e.scale(mark(a, label))


# the benchmark ladders: the lattice and arith groups and C2 up through S5
LADDER_SPECS = ("C1", "C2", "C3", "C4", "prod(C2,C2)", "S3", "C6", "D8", "Q8",
                "prod(C2,prod(C2,C2))", "D10", "D12", "D16", "S4", "prod(D8,C2)",
                "prod(S3,S3)", "prod(C2,prod(C2,prod(C2,C2)))", "S5",
                "prod(S4,C2)", "perm:(1 2 3 4 5);(1 2 3)", "prod(D8,S3)",
                "prod(C3,S4)", "prod(D8,D8)",
                "prod(C2,prod(C2,prod(C2,prod(C2,C2))))")


@pytest.mark.parametrize("ring", [QQ, Zmod(5), Zmod(7), Zmod(35)],
                         ids=lambda r: r.spec)
def test_idempotent_system_matches_full_scan_oracle(ring):
    # the containment index and one lower per idempotent against the
    # scan of every subgroup with one ring division per coefficient:
    # equal coefficients of equal Python types
    checked = 0
    for spec in LADDER_SPECS:
        g = build_group(spec)
        if not ring.is_unit(ring.from_int(g.order)):
            continue
        lat = subgroup_lattice(g)
        for c, e in zip(lat.classes, idempotent_system(g, ring)):
            o = idempotent_by_full_scan(g, c.label, ring)
            assert e.coeffs == o.coeffs
            assert list(map(type, e.coeffs.values())) == list(map(type, o.coeffs.values()))
            assert idempotent(g, c.label, ring) == e
        checked += 1
    assert checked >= 12


def test_warm_idempotents_in_another_ring_build_no_moebius_row(monkeypatch):
    # the numerators live on the lattice, so a second ring only lowers them:
    # it neither builds a Moebius row nor reads a cached one
    def refuse(*args, **kwargs):
        raise AssertionError("read the Moebius function")

    for spec, first, other in [("S4", QQ, Zmod(5)), ("prod(S3,S3)", Zmod(5), QQ),
                               ("prod(C2,prod(C2,prod(C2,C2)))", QQ, Zmod(3))]:
        g = build_group(spec)
        idempotent_system(g, first)
        for name in ("_moebius_row", "moebius_by_index"):
            monkeypatch.setattr(SubgroupLattice, name, refuse)
        idems = idempotent_system(g, other)
        n = len(idems)
        for i, e in enumerate(idems):
            assert marks_vector(e) == [other.one if j == i else other.zero
                                       for j in range(n)]
        label = subgroup_lattice(g).classes[-1].label
        assert idempotent(g, label, other) == idems[-1]
        monkeypatch.undo()


def test_built_elements_skip_the_class_index_check(monkeypatch):
    # products, inverses, idempotents, sums and multiples make their keys
    # from the lattice, so none of them checks them again
    import burnside.algebra

    checked = []
    monkeypatch.setattr(burnside.algebra, "_check_class_indices",
                        lambda *args: checked.append(args))
    g = build_group("S4")
    x = BurnsideElement(g, QQ, {0: Fraction(1, 2), 3: QQ.one})
    assert len(checked) == 1
    idems = idempotent_system(g, QQ)
    unit = BurnsideElement.zero(g, QQ)
    for i, e in enumerate(idems):
        unit = unit.add(e.scale(QQ.from_int(i + 2)))
    assert not isinstance(invert(unit), NotInvertible)
    multiply(x, unit)
    assert identity_element(g, ZZ).coeffs == {len(idems) - 1: 1}
    assert len(checked) == 1


def test_idempotents_read_the_containment_index_not_leq(monkeypatch):
    # the sum over K <= H walks lat.below[H]; no pair of subgroups is tested
    def refuse(*args, **kwargs):
        raise AssertionError("tested containment with leq")

    monkeypatch.setattr(SubgroupLattice, "leq", refuse)
    for spec, ring in [("S4", QQ), ("D8", Zmod(35)), ("prod(S3,S3)", Zmod(5)),
                       ("prod(C2,prod(C2,prod(C2,C2)))", Zmod(7))]:
        g = build_group(spec)
        total = BurnsideElement.zero(g, ring)
        for e in idempotent_system(g, ring):
            total = total.add(e)
        assert total == identity_element(g, ring)


def test_idempotents_live_over_the_callers_group(monkeypatch):
    # the lattice cache is keyed by structural equality, so an equal group
    # built first (here a permutation group with the table of C2 x C2)
    # owns the cached lattice; the idempotents must still be built over g
    from collections import OrderedDict

    from burnside import groups
    from burnside.bisets import diagonal_restrict

    monkeypatch.setattr(groups, "_LATTICE_CACHE", OrderedDict())
    perm = build_group("perm:(1 2);(3 4)")
    g = build_group("prod(C2,C2)")
    assert perm == g and perm.label != g.label
    assert subgroup_lattice(perm).group is perm
    es = idempotent_system(g, QQ) + [idempotent(g, "4#1", QQ)]
    for e in es:
        assert e.group is g and e.group.label == "prod(C2,C2)"
        assert len(e.group.factors) == 2
        assert diagonal_restrict(e) == diagonal_restrict(
            BurnsideElement(g, QQ, e.coeffs))


def test_idempotent_needs_unit_order():
    with pytest.raises(NotInvertibleError):
        idempotent(build_group("C2"), "1#1", ZZ)
    with pytest.raises(NotInvertibleError):
        idempotent(build_group("S3"), "1#1", Zmod(3))


def test_idempotents_modular():
    c2 = build_group("C2")
    e1 = idempotent(c2, "1#1", Zmod(3))
    e2 = idempotent(c2, "2#1", Zmod(3))
    assert e1.coeffs == {0: 2}
    assert e2.coeffs == {0: 1, 1: 1}
    assert multiply(e1, e1) == e1
    assert multiply(e2, e2) == e2
    assert multiply(e1, e2).is_zero()
    assert e1.add(e2) == identity_element(c2, Zmod(3))


def test_invert_identity_and_scalars():
    c2 = build_group("C2")
    one = identity_element(c2, ZZ)
    assert invert(one) == one
    two = identity_element(c2, Zmod(3)).scale(2)
    assert invert(two) == two  # 2 * 2 = 1 mod 3
    res = invert(identity_element(c2, ZZ).scale(2))
    assert isinstance(res, NotInvertible)
    assert res.stage == "non_unit_mark"


def test_invert_product_check():
    for spec in ("C2", "C3", "S3"):
        g = build_group(spec)
        for ring in (QQ, Zmod(5), Zmod(7)):
            gam = gamma(g, ring)
            if not ring.is_unit(ring.from_int(g.order)):
                continue
            inv = invert(gam)
            assert isinstance(inv, BurnsideElement)
            assert multiply(gam, inv) == identity_element(g, ring)


def test_invert_nontrivial_unit_over_z():
    # x = [G/G] - [G/1] over C2 has marks (-1, 1), so it is a unit of ZB(G)
    c2 = build_group("C2")
    x = identity_element(c2, ZZ).sub(BurnsideElement.basis(c2, ZZ, 0))
    inv = invert(x)
    assert isinstance(inv, BurnsideElement)
    assert multiply(x, inv) == identity_element(c2, ZZ)


def test_invert_integral_obstruction():
    # marks of [G/G] + [G/1] over C2 are (3, 1): units in Q but not in Z
    c2 = build_group("C2")
    x = identity_element(c2, ZZ).add(BurnsideElement.basis(c2, ZZ, 0))
    res = invert(x)
    assert isinstance(res, NotInvertible)
    assert res.stage in ("non_unit_mark",)
    y = identity_element(c2, QQ).add(BurnsideElement.basis(c2, QQ, 0))
    inv = invert(y)
    assert multiply(y, inv) == identity_element(c2, QQ)


def _invert_by_linear_solve(a):
    """Cross-check oracle: solve a*x = [G/G] directly over the ring, by
    the dense oracle over Q."""
    g, ring = a.group, a.ring
    n = subgroup_lattice(g).class_count
    cols = []
    for j in range(n):
        col = [ring.zero] * n
        for i, c in a.coeffs.items():
            for l, m in structure_constants(g, i, j).items():
                col[l] = ring.add(col[l], ring.mul(c, ring.from_int(m)))
        cols.append(col)
    rows = [[cols[j][i] for j in range(n)] for i in range(n)]
    rhs = [ring.zero] * n
    rhs[n - 1] = ring.one
    solve = dense_solve_rational if ring == QQ else solve_linear
    res = solve(Matrix.from_rows(ring, rows), rhs)
    if isinstance(res, Solution):
        return BurnsideElement(g, ring, dict(enumerate(res.particular)))
    return None


def _is_unit(a):
    return all(a.ring.is_unit(m) for m in marks_vector(a))


@pytest.mark.parametrize("spec", ["C2", "C3", "S3", "prod(C2,C2)", "D8", "S4"])
def test_invert_agrees_with_direct_solve(spec):
    g = build_group(spec)
    lat = subgroup_lattice(g)
    n = lat.class_count
    rng = random.Random(spec)
    elements = []
    for ring in (ZZ, QQ, Zmod(2), Zmod(3), Zmod(4), Zmod(5), Zmod(6), Zmod(7),
                 Zmod(8), Zmod(12)):
        one = identity_element(g, ring)
        free = BurnsideElement.basis(g, ring, 0)
        elements.append(gamma(g, ring))
        elements.append(one.scale(ring.from_int(2)))
        elements.append(one.sub(free))
        # [G/G] + k[G/1] has marks 1 + k|G| at 1 and 1 elsewhere, so it is
        # a unit mod m whenever 1 + k|G| is, even when m and |G| share a
        # prime: the case where the rational inverse has denominators
        # that are inverted mod m
        elements += [one.add(free.scale(ring.from_int(k))) for k in (1, 2, 3)]
        draws = (BurnsideElement(g, ring, {i: ring.from_int(rng.randint(-3, 3))
                                           for i in range(n)})
                 for _ in range(200))
        elements += [a for a in draws if _is_unit(a)][:3]
    # enough non-scalar units over Z/2, Z/8 and Z/12, which share a prime
    # with |G| for every group here but C3
    assert sum(not a.coeffs.keys() <= {n - 1} and _is_unit(a)
               for a in elements if a.ring.spec in ("Z/2", "Z/8", "Z/12")) >= 5
    for a in elements:
        inverse = invert(a)
        solve_route = _invert_by_linear_solve(a)
        if isinstance(inverse, NotInvertible):
            assert solve_route is None
        else:
            assert solve_route is not None
            # inverses are unique in a commutative ring
            assert multiply(a, solve_route) == identity_element(a.group, a.ring)
            assert solve_route == inverse
            # the ghost side: marks are ring homomorphisms, so the marks
            # of the inverse are the inverted marks
            assert marks_vector(inverse) == [a.ring.inv(m)
                                             for m in marks_vector(a)]


@pytest.mark.parametrize("spec", ["C2", "C3"])
@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_invert_exhaustive_against_brute_force(spec, m):
    # every element of the group algebra over Z/m, checked both ways
    from itertools import product as iproduct

    g = build_group(spec)
    ring = Zmod(m)
    n = subgroup_lattice(g).class_count
    one = identity_element(g, ring)
    elems = [BurnsideElement(g, ring, dict(enumerate(vec)))
             for vec in iproduct(range(m), repeat=n)]
    invertible = set()
    for a in elems:
        if any(multiply(a, b) == one for b in elems):
            invertible.add(str(sorted(a.coeffs.items())))
    for a in elems:
        got = invert(a)
        if str(sorted(a.coeffs.items())) in invertible:
            assert isinstance(got, BurnsideElement)
            assert multiply(a, got) == one
        else:
            assert isinstance(got, NotInvertible)


def test_invert_never_solves_a_linear_system(monkeypatch):
    import burnside.algebra
    import burnside.rings

    def refuse(*args, **kwargs):
        raise AssertionError("invert reached the linear solver")

    assert not hasattr(burnside.algebra, "solve_linear")
    for name in ("solve_linear", "_snf_int", "_diagonalize_mod"):
        monkeypatch.setattr(burnside.rings, name, refuse)
    for spec in ("prod(C2,C2)", "D8", "S4"):
        g = build_group(spec)
        for ring in (ZZ, QQ, Zmod(5), Zmod(8), Zmod(12)):
            one = identity_element(g, ring)
            for a in (gamma(g, ring), one.scale(ring.from_int(3)),
                      one.add(BurnsideElement.basis(g, ring, 0))):
                res = invert(a)
                assert isinstance(res, (BurnsideElement, NotInvertible))
                if isinstance(res, BurnsideElement):
                    assert multiply(a, res) == one


# groups up to order 24, several with order sharing primes with the modulus
ROUND_TRIP_SPECS = ("C1", "C2", "C4", "C6", "prod(C2,C2)", "S3", "D8", "Q8",
                    "D12", "prod(C2,prod(C2,C2))", "prod(C2,S3)",
                    "prod(C3,C3)", "C12", "D16", "prod(C4,C4)", "S4", "D24",
                    "prod(C2,C12)")


def _unit_part(a):
    """a*e + [G/G] - e with e = a^phi(m): a unit of B(G) over Z/m.

    Mark by mark and prime power p^k | m, x^phi(m) is 1 when p does not
    divide x and 0 when it does (phi(m) >= k), so e is an idempotent that
    keeps the unit marks of a and puts 1 in place of the others.
    """
    m = a.ring.m
    one = identity_element(a.group, a.ring)
    e = one
    for _ in range(sum(gcd(k, m) == 1 for k in range(1, m))):
        e = multiply(e, a)
    return multiply(a, e).add(one).sub(e)


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(spec=st.sampled_from(ROUND_TRIP_SPECS),
       m=st.sampled_from((0,) + tuple(range(2, 31))),
       seed=st.integers(0, 2**32 - 1))
def test_invert_round_trip_on_random_units(spec, m, seed):
    g = build_group(spec)
    n = subgroup_lattice(g).class_count
    rng = random.Random(seed)
    if m == 0:  # over Q a random element is a unit unless a mark vanishes
        a = BurnsideElement(g, QQ, {i: Fraction(rng.randint(-9, 9),
                                                rng.randint(1, 9))
                                    for i in range(n)})
        assume(_is_unit(a))
    else:
        a = _unit_part(BurnsideElement(
            g, Zmod(m), {i: rng.randrange(m) for i in range(n)
                         if rng.random() < 0.5}))
        assert _is_unit(a)
    inverse = invert(a)
    assert multiply(a, inverse) == identity_element(g, a.ring)
    assert marks_vector(inverse) == [a.ring.inv(x) for x in marks_vector(a)]


def test_element_json_roundtrip_shape():
    s3 = build_group("S3")
    gam = gamma(s3, Zmod(5))
    d = gam.to_json_dict()
    assert d["group"] == "S3" and d["ring"] == "Z/5"
    assert d["coeffs"] == {"2#1": "1", "3#1": "1", "6#1": "1"}
