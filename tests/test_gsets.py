import hashlib
import json

import pytest

from burnside.errors import GroupMismatchError, NotAGroupError, NotContainedError
from burnside.groups import (
    Subgroup,
    build_group,
    subgroup_lattice,
    trivial_subgroup,
)
from burnside.gsets import (
    GSet,
    conjugation_gset,
    decompose,
    disjoint_union,
    empty_gset,
    fixed_points,
    induce,
    induce_along,
    iso_equal,
    orbits,
    product,
    regular,
    restrict,
    stabilizer,
    transitive,
)


def full_subgroup(g):
    return Subgroup(g, range(g.order))


def test_transitive_sizes():
    s3 = build_group("S3")
    assert transitive(s3, full_subgroup(s3)).size == 1
    c2 = build_group("C2")
    assert transitive(c2, trivial_subgroup(c2)).size == 2
    lat = subgroup_lattice(s3)
    assert transitive(s3, lat.class_rep(1)).size == 3


def test_induce_along_needs_a_homomorphism():
    c1, c2, c4 = build_group("C1"), build_group("C2"), build_group("C4")
    assert induce_along(regular(c1), [0], c2).size == 2
    # the trivial group has no generators, so only the identity check sees this
    with pytest.raises(NotAGroupError, match="homomorphism"):
        induce_along(regular(c1), [1], c2)
    with pytest.raises(NotAGroupError, match="homomorphism"):
        induce_along(regular(c4), [0, 1, 2, 3], build_group("prod(C2,C2)"))
    for images in ([0, 5], [0, -2]):  # never read as indices into c4
        with pytest.raises(NotContainedError):
            induce_along(regular(c2), images, c4)


def test_transitive_needs_containment():
    s3 = build_group("S3")
    c2 = build_group("C2")
    with pytest.raises(NotContainedError):
        transitive(s3, trivial_subgroup(c2))


def test_action_table_validation():
    c2 = build_group("C2")
    with pytest.raises(NotAGroupError, match="action is not compatible with mul"):
        GSet(c2, [[0, 1], [1, 1]])  # non-identity row repeats a point
    with pytest.raises(NotAGroupError):
        GSet(c2, [[1, 0], [0, 1]])  # identity must fix every point


def test_built_actions_skip_validation_and_would_pass_it(monkeypatch):
    from burnside.groups import diagonal_subgroup, squared

    checked = []
    monkeypatch.setattr(GSet, "_validate", lambda self: checked.append(self))
    built = []
    for spec in ("S4", "D12", "Q8", "prod(C2,C3)"):
        g = build_group(spec)
        lat = subgroup_lattice(g)
        built += [transitive(g, lat.class_rep(ci)) for ci in range(lat.class_count)]
    # induced onto D12 x D12 along the diagonal, as diagonal_induce does
    g = build_group("D12")
    gg = squared(g)
    delta = diagonal_subgroup(g, gg)
    dg = delta.as_group()
    lat = subgroup_lattice(g)
    for ci in range(lat.class_count):
        built.append(induce(transitive(g, lat.class_rep(ci)).rehomed(dg), delta, gg))
    assert not checked
    monkeypatch.undo()
    for x in built:
        GSet(x.group, x.action, validate=True)


def test_fixed_points():
    s3 = build_group("S3")
    lat = subgroup_lattice(s3)
    for ci in range(lat.class_count):
        k = lat.class_rep(ci)
        x = transitive(s3, k)
        assert fixed_points(x, trivial_subgroup(s3)) == s3.order // k.order
    c2 = build_group("C2")
    assert fixed_points(regular(c2), full_subgroup(c2)) == 0
    point = transitive(s3, full_subgroup(s3))
    for ci in range(lat.class_count):
        assert fixed_points(point, lat.class_rep(ci)) == 1


def test_product_identity_and_squares():
    c2 = build_group("C2")
    x = regular(c2)
    point = transitive(c2, full_subgroup(c2))
    assert iso_equal(product(x, point), x)
    sq = product(x, x)
    dec = decompose(sq).multiplicities()
    assert dec == {"1#1": 2}  # free square splits as 2 copies of the free orbit


def test_product_fixed_point_multiplicativity():
    s3 = build_group("S3")
    lat = subgroup_lattice(s3)
    x = transitive(s3, lat.class_rep(1))
    y = transitive(s3, lat.class_rep(2))
    xy = product(x, y)
    for ci in range(lat.class_count):
        h = lat.class_rep(ci)
        assert fixed_points(xy, h) == fixed_points(x, h) * fixed_points(y, h)


def test_product_group_mismatch():
    with pytest.raises(GroupMismatchError):
        product(regular(build_group("C2")), regular(build_group("C3")))


def test_orbit_stabilizer_theorem():
    for spec in ("S3", "D8", "Q8"):
        g = build_group(spec)
        for x in (regular(g), conjugation_gset(g)):
            for orb in orbits(x):
                assert len(orb) * stabilizer(x, orb[0]).order == g.order


def test_decompose_regular_and_empty():
    s3 = build_group("S3")
    dec = decompose(regular(s3))
    assert len(dec.parts) == 1
    assert dec.parts[0].stabilizer.order == 1
    assert decompose(empty_gset(s3)).parts == ()


def test_decompose_conjugation_s3():
    s3 = build_group("S3")
    dec = decompose(conjugation_gset(s3))
    assert dec.multiplicities() == {"6#1": 1, "2#1": 1, "3#1": 1}
    stab_orders = sorted(p.stabilizer.order for p in dec.parts)
    assert stab_orders == [2, 3, 6]


def test_induce_from_trivial_gives_regular():
    s3 = build_group("S3")
    triv = trivial_subgroup(s3)
    pt = transitive(triv.as_group(), full_subgroup(triv.as_group()))
    ind = induce(pt, triv, s3)
    assert iso_equal(ind, regular(s3))


def test_induce_transitivity_of_cosets():
    # Ind_H^K(H/L) is K/L: check stabilizers match up to conjugacy
    k = build_group("D8")
    lat = subgroup_lattice(k)
    h = lat.class_rep(4)  # an order-4 subgroup
    assert h.order == 4
    hg = h.as_group()
    hlat = subgroup_lattice(hg)
    for ci in range(hlat.class_count):
        l_local = hlat.class_rep(ci)
        x = transitive(hg, l_local)
        ind = induce(x, h, k)
        assert ind.size == (k.order // h.order) * x.size
        l_parent = Subgroup(k, [h.members[i] for i in l_local.members])
        expect = transitive(k, l_parent)
        assert iso_equal(ind, expect)


def test_induce_size_formula():
    s3 = build_group("S3")
    lat = subgroup_lattice(s3)
    h = lat.class_rep(2)
    hg = h.as_group()
    x = regular(hg)
    assert induce(x, h, s3).size == (s3.order // h.order) * x.size


def test_restrict_identity_and_trivial():
    s3 = build_group("S3")
    x = transitive(s3, subgroup_lattice(s3).class_rep(1))
    res = restrict(x, full_subgroup(s3))
    assert res.size == x.size
    assert iso_equal(res.rehomed(s3), x)
    triv = restrict(x, trivial_subgroup(s3))
    assert fixed_points(triv, trivial_subgroup(triv.group)) == x.size


def test_restrict_c2_in_s3():
    s3 = build_group("S3")
    lat = subgroup_lattice(s3)
    c2 = lat.class_rep(1)
    c3_set = transitive(s3, lat.class_rep(2))  # 2 points
    res = restrict(c3_set, c2)
    dec = decompose(res).multiplicities()
    assert dec == {"1#1": 1}  # one free orbit of size 2


def test_iso_equal_cases():
    c2 = build_group("C2")
    x = regular(c2)
    assert iso_equal(x, x)
    sq = product(x, x)
    two_free = disjoint_union(x, x)
    assert iso_equal(sq, two_free)
    point = transitive(c2, full_subgroup(c2))
    two_points = disjoint_union(point, point)
    assert not iso_equal(x, two_points)


def test_iso_equal_is_equivalence_on_sample():
    s3 = build_group("S3")
    lat = subgroup_lattice(s3)
    sets = [transitive(s3, lat.class_rep(ci)) for ci in range(lat.class_count)]
    sets.append(product(sets[0], sets[1]))
    sets.append(disjoint_union(sets[1], sets[2]))
    for a in sets:
        assert iso_equal(a, a)
        for b in sets:
            assert iso_equal(a, b) == iso_equal(b, a)


def test_marks_determine_iso_class():
    # equality of all fixed-point counts implies isomorphism
    s3 = build_group("S3")
    lat = subgroup_lattice(s3)
    sets = [transitive(s3, lat.class_rep(ci)) for ci in range(lat.class_count)]
    sets.append(product(sets[1], sets[2]))
    sets.append(disjoint_union(sets[0], sets[3]))
    for a in sets:
        for b in sets:
            marks_a = [fixed_points(a, lat.class_rep(ci))
                       for ci in range(lat.class_count)]
            marks_b = [fixed_points(b, lat.class_rep(ci))
                       for ci in range(lat.class_count)]
            assert (marks_a == marks_b) == iso_equal(a, b)


@pytest.mark.parametrize("spec", ["S3", "D8"])
def test_frobenius_identity(spec):
    # Ind_H^G(Res_H^G(X)) is (G/H) x X for transitive X
    g = build_group(spec)
    lat = subgroup_lattice(g)
    for hi in range(lat.class_count):
        h = lat.class_rep(hi)
        for xi in range(lat.class_count):
            x = transitive(g, lat.class_rep(xi))
            back = induce(restrict(x, h), h, g)
            direct = product(transitive(g, h), x)
            assert decompose(back).multiplicities() == \
                decompose(direct).multiplicities()


def test_induce_along_matches_positional_for_sorted_image():
    # inducing along the identity-order embedding agrees with plain induction
    s3 = build_group("S3")
    lat = subgroup_lattice(s3)
    h = lat.class_rep(2)
    hg = h.as_group()
    x = regular(hg)
    via_map = induce_along(x, list(h.members), s3)
    via_sub = induce(x, h, s3)
    assert iso_equal(via_map, via_sub)


# sha256 of induced action tables: points are numbered by their least pair
# a*|x| + p, and these digests pin that numbering
@pytest.mark.parametrize("spec,digest", [
    ("S4", "7d9443c1d180fdba240bbb2004b5512bab47af37c98d3770bd72997b0d1b2e3d"),
    ("D12", "dd1757f594cde8be314249d8e1df2d1975a9854742f34e842d5d1b7daa345623"),
    ("prod(C3,S3)", "da40847b5888e463b9b4aa12c7313e910db84907acbc8cac6e2324940c5b9c30"),
    ("Q8", "a0b99cc418d1ed63322e8a9f09ed065ed430f7aebd161543657bf0df1d72a91a"),
])
def test_induce_action_tables_are_pinned(spec, digest):
    """Every transitive set of every subgroup class, induced to the group."""
    k = build_group(spec)
    lat = subgroup_lattice(k)
    tables = []
    for ci in range(lat.class_count):
        h = lat.class_rep(ci)
        hg = h.as_group()
        hl = subgroup_lattice(hg)
        tables += [induce(transitive(hg, hl.class_rep(cj)), h, k).action
                   for cj in range(hl.class_count)]
    assert hashlib.sha256(json.dumps(tables).encode()).hexdigest() == digest


def test_induce_along_rejects_non_homomorphisms():
    s3 = build_group("S3")
    c2 = build_group("C2")
    x = regular(c2)
    with pytest.raises(NotAGroupError):
        induce_along(x, [0, 3], s3)  # 3 is a 3-cycle, not an involution
