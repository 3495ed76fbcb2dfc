import hashlib
import json
import random
from collections import OrderedDict
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burnside.errors import (
    NotAGroupError,
    NotContainedError,
    OrderBoundError,
    ParseError,
)
from burnside.groups import (
    Group,
    Subgroup,
    balanced_product,
    build_group,
    centralizer_of_element,
    centralizer_of_subgroup,
    diagonal_subgroup,
    direct_product,
    element_classes,
    is_homomorphism,
    moebius,
    normalizer,
    subgroup_closure,
    subgroup_lattice,
    subgroups_conjugate,
    trivial_subgroup,
)

from helpers import (
    assoc_holds_everywhere,
    containment_by_mask_scan,
    generated_subgroup,
    generating_set,
    lattice_by_every_zuppo,
    marks_by_class_masks,
    moebius_by_zeta_inverse,
    subgroups_by_powerset,
)
from test_algebra import LADDER_SPECS, TEST_SPECS


C2_5 = "prod(C2,prod(C2,prod(C2,prod(C2,C2))))"
A5 = "perm:(1 2 3 4 5);(1 2 3)"

BUILTIN_SPECS = ["C1", "C2", "C3", "C4", "S3", "D8", "Q8", "prod(C2,C2)",
                 "prod(C2,C3)", "perm:(1 2 3);(1 2)"]


@pytest.mark.parametrize("spec,order", [
    ("C1", 1), ("C4", 4), ("S3", 6), ("D8", 8), ("Q8", 8),
    ("prod(C2,C2)", 4), ("prod(C2,C3)", 6), ("S5", 120),
    ("perm:(1 2 3);(1 2)", 6), ("perm:(1 2)(3 4)", 2),
])
def test_orders(spec, order):
    assert build_group(spec).order == order


@pytest.mark.parametrize("spec", BUILTIN_SPECS)
def test_axioms_hold_on_full_table(spec):
    g = build_group(spec)
    assert assoc_holds_everywhere(g)
    e = g.identity
    for a in g.elements():
        b = g.inv(a)
        assert g.mul(a, b) == e and g.mul(b, a) == e


def test_labels_are_canonical():
    assert build_group("C4").label == "C4"
    assert build_group("prod(C2,C2)").label == "prod(C2,C2)"
    assert build_group("prod(prod(C2,C2),C3)").label == "prod(prod(C2,C2),C3)"
    assert build_group("perm:(2 1);(4 3)").label == "perm:(1 2);(3 4)"


def test_spec_whitespace_tolerance():
    g = build_group("  prod( C2 , prod(C3 , C2) ) ")
    assert g.order == 12
    assert g.label == "prod(C2,prod(C3,C2))"


def test_parse_errors():
    for bad in ("", "C", "Cx", "D7", "D2", "S6", "Q16", "prod(C2)",
                "perm:", "perm:(0 1)", "perm:(1 1 2)", "frob(C2,C2)"):
        with pytest.raises(ParseError):
            build_group(bad)


def test_order_bound():
    with pytest.raises(OrderBoundError):
        build_group("prod(S5,S3)")  # 720
    with pytest.raises(OrderBoundError):
        build_group("C256")
    with pytest.raises(OrderBoundError):
        build_group("S5", max_order=100)
    with pytest.raises(OrderBoundError):
        direct_product(build_group("S5"), build_group("S3"))


def test_bad_table_rejected():
    with pytest.raises(NotAGroupError):
        Group([[0, 1], [1, 1]])  # 1*1 = 1 breaks inverses
    with pytest.raises(NotAGroupError):
        Group([[0, 1], [0, 1]])  # identity not acting trivially
    # a Latin square with identity 0 and inverses, but 1*(1*2) != (1*1)*2
    with pytest.raises(NotAGroupError, match="multiplication is not associative"):
        Group([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
               [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])


@pytest.mark.parametrize("bad", [1.5, 1.0, "1"])
def test_group_table_and_identity_must_hold_ints(bad):
    # refused, not truncated: 1.5, 1.0 and "1" all once read as 1
    with pytest.raises(NotAGroupError, match="^table entry out of range$"):
        Group([[0, bad], [bad, 0]])
    # C2 with identity 1
    assert Group([[1, 0], [0, 1]], identity=1).identity == 1
    with pytest.raises(NotAGroupError, match="^identity index out of range$"):
        Group([[1, 0], [0, 1]], identity=bad)


def test_group_keeps_the_rows_it_is_given():
    rows = ((0, 1), (1, 0))
    g = Group(rows)
    assert g.mul_table == rows and all(a is b for a, b in zip(g.mul_table, rows))
    assert Group([[0, 1], [1, 0]]) == g


def test_balanced_product_without_gluing_numbers_the_plain_pairs():
    # C3 shifting s and swapping t, with nothing glued: pair (s, t) is class 2s + t
    shift = [[(s + a) % 3 for s in range(3)] for a in range(3)]
    reps, action = balanced_product(3, 2, [], [(row, (1, 0)) for row in shift])
    assert reps == list(range(6))
    assert action == [[(s + a) % 3 * 2 + 1 - t for s in range(3) for t in range(2)]
                      for a in range(3)]


def test_balanced_product_does_not_depend_on_the_gluing_order():
    # S4 x_H S4 for H = S3, glued by every non-identity element of H, either way round
    s4 = build_group("S4")
    lat = subgroup_lattice(s4)
    h = next(lat.class_rep(ci) for ci in range(lat.class_count)
             if lat.class_rep(ci).order == 6)
    t = s4.mul_table
    glue = [([row[m] for row in t], t[m]) for m in h.members if m != s4.identity]
    acts = [(row, range(s4.order)) for row in t]
    forward = balanced_product(s4.order, s4.order, glue, acts)
    backward = balanced_product(s4.order, s4.order, glue[::-1], acts)
    assert forward == backward
    reps, action = forward
    assert len(reps) == s4.order * s4.order // h.order
    assert all(len(set(row)) == len(reps) for row in action)


def test_dihedral_is_order_n_and_nonabelian():
    d8 = build_group("D8")
    assert d8.order == 8
    assert not d8.is_abelian
    orders = sorted(d8.element_order(x) for x in d8.elements())
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4]


def test_quaternion_structure():
    q8 = build_group("Q8")
    orders = sorted(q8.element_order(x) for x in q8.elements())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    lat = subgroup_lattice(q8)
    # 1, Z = {1,-1}, <i>, <j>, <k>, Q8; all normal
    assert len(lat.subgroups) == 6
    assert lat.class_count == 6


def test_s3_element_classes():
    g = build_group("S3")
    cls = element_classes(g)
    assert [len(c) for _, c, _ in cls] == [1, 3, 2]
    assert [rep for rep, _, _ in cls] == [min(c) for _, c, _ in cls]
    # centralizer orders: |G| / class size
    for rep, c, cz in cls:
        assert cz.order * len(c) == g.order


@pytest.mark.parametrize("spec", ["C1", "S3", "Q8", "D12", A5, "S5",
                                  "prod(S3,S3)", "C255"])
def test_element_classes_match_conjugation_and_centralizer_scan(spec):
    # the old route: each class by conjugating its least member, each
    # centralizer by centralizer_of_element
    g = build_group(spec)
    seen, expect = set(), []
    for x in g.elements():
        if x not in seen:
            cls = tuple(sorted({g.conj(y, x) for y in g.elements()}))
            seen.update(cls)
            expect.append((x, cls, centralizer_of_element(g, x)))
    got = element_classes(g)
    assert [(x, cls, cz.members) for x, cls, cz in got] == \
        [(x, cls, cz.members) for x, cls, cz in expect]
    assert all(cz.parent is g for _, _, cz in got)


def test_equal_centralizers_share_one_subgroup():
    c255 = build_group("C255")
    assert len({id(cz) for _, _, cz in element_classes(c255)}) == 1
    # S3: the identity's centralizer, one of order 2, one of order 3
    assert len({id(cz) for _, _, cz in element_classes(build_group("S3"))}) == 3


def test_abelian_element_classes_are_singletons():
    g = build_group("prod(C2,C3)")
    assert all(len(c) == 1 for _, c, _ in element_classes(g))
    assert len(element_classes(build_group("C1"))) == 1


@pytest.mark.parametrize("spec,n_subs,n_classes", [
    ("C2", 2, 2),
    ("S3", 6, 4),
    ("prod(C2,C2)", 5, 5),
    ("D8", 10, 8),
    ("Q8", 6, 6),
    ("C4", 3, 3),
])
def test_lattice_counts_against_powerset_oracle(spec, n_subs, n_classes):
    g = build_group(spec)
    lat = subgroup_lattice(g)
    assert len(lat.subgroups) == n_subs
    assert lat.class_count == n_classes
    oracle = subgroups_by_powerset(g)
    assert {s.members for s in lat.subgroups} == oracle


def test_s3_class_structure():
    lat = subgroup_lattice(build_group("S3"))
    assert lat.labels() == ["1#1", "2#1", "3#1", "6#1"]
    sizes = [len(c.member_indices) for c in lat.classes]
    assert sizes == [1, 3, 1, 1]
    assert sum(sizes) == len(lat.subgroups)


def test_lattice_determinism_across_fresh_builds():
    a = subgroup_lattice(build_group("D8"))
    b = subgroup_lattice(build_group("D8"))
    assert [s.members for s in a.subgroups] == [s.members for s in b.subgroups]
    assert a.labels() == b.labels()
    assert [c.rep_index for c in a.classes] == [c.rep_index for c in b.classes]


def test_conjugation_permutes_subgroups():
    g = build_group("D8")
    lat = subgroup_lattice(g)
    all_members = {s.members for s in lat.subgroups}
    for x in g.elements():
        conj = {tuple(sorted(g.conj(x, m) for m in s.members))
                for s in lat.subgroups}
        assert conj == all_members


def test_moebius_base_cases():
    for spec, expect in [("C2", -1), ("C3", -1), ("C5", -1)]:
        g = build_group(spec)
        lat = subgroup_lattice(g)
        triv = trivial_subgroup(g)
        full = Subgroup(g, range(g.order))
        assert moebius(lat, triv, triv) == 1
        assert moebius(lat, full, full) == 1
        assert moebius(lat, triv, full) == expect


def test_moebius_klein_four():
    g = build_group("prod(C2,C2)")
    lat = subgroup_lattice(g)
    assert moebius(lat, trivial_subgroup(g), Subgroup(g, range(4))) == 2


class _SliceSpy(tuple):
    """A ``below`` entry that counts the times it is sliced."""

    slices = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            _SliceSpy.slices += 1
        return tuple.__getitem__(self, key)


@pytest.mark.parametrize("spec", ["S3", "D8", "Q8", "prod(C2,C2)", "S4", "D16",
                                  "prod(S3,S3)", A5, "prod(D8,C2)", "prod(D8,C4)"])
def test_moebius_against_zeta_inverse(spec, monkeypatch):
    from burnside import groups
    monkeypatch.setattr(groups, "_LATTICE_CACHE", OrderedDict())
    g = build_group(spec)
    lat = subgroup_lattice(g)
    # a row sums over below[h] without H where that list is the shorter,
    # and over K's earlier supergroups elsewhere; every group here has
    # Moebius values of both kinds, so both lists are read
    lat.__dict__["below"] = tuple(map(_SliceSpy, lat.below))
    monkeypatch.setattr(_SliceSpy, "slices", 0)
    inv = moebius_by_zeta_inverse(lat)
    n = len(lat.subgroups)
    for k in range(n):
        for h in range(n):
            if lat.leq(k, h):
                assert inv[k][h] == lat.moebius_by_index(k, h)
            else:
                assert inv[k][h] == 0
    off_diagonal = sum(len(lat._above(k)) - 1 for k in range(n))
    assert 0 < _SliceSpy.slices < off_diagonal


@pytest.mark.parametrize("spec", ["S3", "D8"])
def test_moebius_recursion_sums(spec):
    g = build_group(spec)
    lat = subgroup_lattice(g)
    n = len(lat.subgroups)
    for k in range(n):
        for h in range(n):
            if not lat.leq(k, h):
                continue
            total = sum(lat.moebius_by_index(k, l) for l in range(n)
                        if lat.leq(k, l) and lat.leq(l, h))
            assert total == (1 if k == h else 0)


def test_moebius_requires_containment():
    g = build_group("S3")
    lat = subgroup_lattice(g)
    a = lat.class_rep(1)  # an order-2 subgroup
    b = lat.class_rep(2)  # the order-3 subgroup
    with pytest.raises(NotContainedError):
        moebius(lat, a, b)


def test_lattice_lookups_refuse_a_subgroup_of_another_group():
    lat = subgroup_lattice(build_group("S3"))
    c2 = build_group("C2")
    whole = Subgroup(c2, range(2))
    with pytest.raises(NotContainedError, match="different group"):
        moebius(lat, trivial_subgroup(c2), whole)
    with pytest.raises(NotContainedError, match="different group"):
        moebius(lat, lat.class_rep(0), whole)
    with pytest.raises(NotContainedError, match="different group"):
        lat.class_index_of_subgroup(whole)
    with pytest.raises(NotContainedError, match="different group"):
        lat.class_label_of_subgroup(whole)
    # a structurally equal group object is the same group
    s3 = build_group("S3")
    top = Subgroup(s3, range(6))
    assert moebius(lat, trivial_subgroup(s3), top) == 3
    assert lat.class_label_of_subgroup(top) == lat.classes[-1].label


@pytest.mark.parametrize("members,bad", [([-1, 0], "-1"), ([0, 6], "6"),
                                         ([0, 1.5], "1.5"), ([0, 1.0], "1.0")])
def test_subgroup_member_must_be_an_element(members, bad):
    # checked before the mask is built; 1.5 is refused, not truncated to 1
    # ({0, 1} is a subgroup of S3)
    s3 = build_group("S3")
    assert Subgroup(s3, [0, 1]).order == 2
    with pytest.raises(NotContainedError, match=f"^element {bad} outside parent"):
        Subgroup(s3, members)


@pytest.mark.parametrize("members,message", [
    ([0, 1, 2], "subgroup not closed under product"),  # two transpositions
    ([0, 3], "subgroup not closed under inverse"),  # a 3-cycle without its inverse
    ([1, 2], "subgroup lacks the identity"),
    ([], "subgroup cannot be empty"),
])
def test_subgroup_refuses_a_set_that_is_not_closed(members, message):
    # S3's elements are the permutations of 0..2 in lexicographic order
    s3 = build_group("S3")
    with pytest.raises(NotAGroupError, match=f"^{message}$"):
        Subgroup(s3, members)


@pytest.mark.parametrize("bad", [1.5, 1.0, "1"])
def test_subgroup_closure_refuses_a_non_int(bad):
    s3 = build_group("S3")
    assert subgroup_closure(s3, [1]).members == (0, 1)
    with pytest.raises(NotContainedError, match=f"^element {bad} outside parent"):
        subgroup_closure(s3, [bad])
    with pytest.raises(NotContainedError):
        subgroup_closure(s3, [1.9])  # once truncated to {0, 1}


@pytest.mark.parametrize("bad", [1.5, 1.0, "1", -1, 6])
def test_centralizer_of_element_refuses_a_non_element(bad):
    s3 = build_group("S3")
    assert centralizer_of_element(s3, 1).members == (0, 1)
    with pytest.raises(NotContainedError, match=f"^element {bad!r} outside group$"):
        centralizer_of_element(s3, bad)


def test_normalizer_and_centralizers_s3():
    g = build_group("S3")
    lat = subgroup_lattice(g)
    c3 = lat.class_rep(2)
    assert c3.order == 3
    assert normalizer(g, c3).order == 6  # index 2 means normal
    c2 = lat.class_rep(1)
    assert centralizer_of_subgroup(g, c2) == c2
    assert centralizer_of_element(g, g.identity).order == g.order


@pytest.mark.parametrize("spec", ["S3", "D8", "Q8"])
def test_normalizer_centralizer_invariants(spec):
    g = build_group(spec)
    lat = subgroup_lattice(g)
    for ci in range(lat.class_count):
        h = lat.class_rep(ci)
        n = normalizer(g, h)
        c = centralizer_of_subgroup(g, h)
        assert n.order % h.order == 0
        assert c.leq(n)


@pytest.mark.parametrize("spec", TEST_SPECS + ["S5", "prod(D8,D8)"])
def test_generators_are_greedy(spec):
    # each generator is the least element outside the span of the earlier ones
    g = build_group(spec)
    assert g.generators == tuple(generating_set(g, g.elements()))


def test_direct_product_layout():
    a = build_group("C2")
    b = build_group("C3")
    p = direct_product(a, b)
    assert p.order == 6 and p.is_abelian
    # element (x, y) has index x*|b| + y and multiplies componentwise
    for x1 in a.elements():
        for y1 in b.elements():
            for x2 in a.elements():
                for y2 in b.elements():
                    got = p.mul(x1 * 3 + y1, x2 * 3 + y2)
                    assert got == a.mul(x1, x2) * 3 + b.mul(y1, y2)
    # product of coprime cyclics is cyclic
    assert sorted(p.element_order(x) for x in p.elements()) == [1, 2, 3, 3, 6, 6]


def test_direct_product_with_trivial_and_big():
    s3 = build_group("S3")
    c1 = build_group("C1")
    p = direct_product(s3, c1)
    assert p.order == 6
    assert sorted(p.element_order(x) for x in p.elements()) == \
        sorted(s3.element_order(x) for x in s3.elements())
    assert direct_product(s3, s3).order == 36


def test_diagonal_subgroup():
    c2 = build_group("C2")
    d = diagonal_subgroup(c2)
    assert d.members == (0, 3)
    s3 = build_group("S3")
    assert diagonal_subgroup(s3).order == 6
    c1 = build_group("C1")
    assert diagonal_subgroup(c1).order == 1


def test_subgroup_closure_and_conjugacy():
    g = build_group("S3")
    h = subgroup_closure(g, [1])  # a transposition
    assert h.order == 2
    lat = subgroup_lattice(g)
    reps = [lat.subgroups[i] for i in lat.classes[1].member_indices]
    assert all(subgroups_conjugate(g, reps[0], r) for r in reps)
    c3 = lat.class_rep(2)
    assert not subgroups_conjugate(g, reps[0], c3)


def test_subgroup_as_group_roundtrip():
    g = build_group("D8")
    lat = subgroup_lattice(g)
    for ci in range(lat.class_count):
        h = lat.class_rep(ci)
        hg = h.as_group()
        assert hg.order == h.order
        assert assoc_holds_everywhere(hg)


def test_lattice_resource_bound(monkeypatch):
    from burnside import groups
    from burnside.errors import ResourceBoundError
    # an empty cache, whichever lattices earlier tests left in the shared one
    monkeypatch.setattr(groups, "_LATTICE_CACHE", OrderedDict())
    monkeypatch.setattr(groups, "DEFAULT_SUBGROUP_CAP", 3)
    g = build_group("perm:(1 2);(3 4);(5 6)")  # fresh C2^3, not cached yet
    assert g not in groups._LATTICE_CACHE
    with pytest.raises(ResourceBoundError):
        subgroup_lattice(g)


@pytest.mark.parametrize("spec", ["S4", "D16", "prod(S3,S3)", A5, "prod(D8,C2)"])
def test_lattice_holds_every_cyclic_subgroup_and_every_join(spec):
    # every subgroup is the join of its cyclic subgroups, so a list that
    # holds them all and is closed under joins holds every subgroup
    g = build_group(spec)
    lat = subgroup_lattice(g)
    known = {s.members for s in lat.subgroups}
    assert {generated_subgroup(g, [x]) for x in g.elements()} <= known
    gens = [generating_set(g, s.members) for s in lat.subgroups]
    for i, j in combinations(range(len(gens)), 2):
        if not lat.leq(i, j):  # sorted by order, so j never lies below i
            assert generated_subgroup(g, gens[i] + gens[j]) in known, (i, j)


@pytest.mark.parametrize("spec", ["S4", "D16", "prod(S3,S3)", A5, "prod(D8,C2)"])
def test_closure_matches_breadth_first_oracle(spec):
    # the coset-by-coset join against a plain search over generator words
    g = build_group(spec)
    rng = random.Random(spec)
    for _ in range(40):
        gens = rng.sample(range(g.order), rng.randint(0, 4))
        assert subgroup_closure(g, gens).members == generated_subgroup(g, gens), gens


def test_prime_index_skip_bounds_the_joins(monkeypatch):
    from burnside import groups
    monkeypatch.setattr(groups, "_LATTICE_CACHE", OrderedDict())
    calls = []
    join = groups._join
    monkeypatch.setattr(groups, "_join", lambda *a: calls.append(a) or join(*a))
    lat = subgroup_lattice(build_group(C2_5))
    assert len(lat.subgroups) == 374
    # 32 joins find the zuppos; without the skip the extension makes 9517
    assert len(calls) <= 2200


@pytest.mark.parametrize("spec,joins", [("prod(D8,D8)", 3000), ("S5", 300)])
def test_conjugate_zuppo_skip_bounds_the_joins(monkeypatch, spec, joins):
    from burnside import groups
    g = build_group(spec)
    monkeypatch.setattr(groups, "_LATTICE_CACHE", OrderedDict())
    calls = []
    join = groups._join
    monkeypatch.setattr(groups, "_join", lambda *a: calls.append(a) or join(*a))
    subgroup_lattice(g)
    # |G| joins find the zuppos; joining every zuppo outside H and its
    # prime-index joins, conjugate or not, makes 4301 and 714 more
    assert len(calls) <= g.order + joins


@pytest.mark.parametrize("spec,joins", [
    ("prod(D8,D8)", 1100), (C2_5, 400), ("S5", 180)])
def test_zuppo_filters_bound_the_joins(monkeypatch, spec, joins):
    # only zuppos z with z^p in H, outside every subgroup found in which H
    # has prime index, are joined: 1038, 373 and 170 joins, against 2893,
    # 2077 and 261 with H's own prime-index joins as the only such subgroups
    # and no z^p test
    from burnside import groups
    g = build_group(spec)
    monkeypatch.setattr(groups, "_LATTICE_CACHE", OrderedDict())
    calls = []
    join = groups._join
    monkeypatch.setattr(groups, "_join", lambda *a: calls.append(a) or join(*a))
    subgroup_lattice(g)
    # the first |G| joins find the zuppos
    assert len(calls) - g.order <= joins


def _lattice_layout(lat):
    return ([s.members for s in lat.subgroups],
            [(c.label, c.rep_index, c.member_indices) for c in lat.classes],
            list(lat.class_of))


@pytest.mark.parametrize("spec", [
    "S4", "D16", "prod(S3,S3)", C2_5, "prod(S4,C2)", A5, "prod(D8,S3)",
    "prod(C3,S4)", "prod(D8,D8)", "S5", "Q8", "C1", "prod(Q8,D8)",
    "prod(S4,S3)", "prod(D12,D12)"])
def test_lattice_matches_every_zuppo_oracle(spec):
    g = build_group(spec)
    assert _lattice_layout(subgroup_lattice(g)) == lattice_by_every_zuppo(g)


def _cycles(perm):
    """Cycle notation of a permutation of 1..n given as a tuple of images."""
    seen, out = set(), []
    for p in perm:
        cycle = []
        while p not in seen:
            seen.add(p)
            cycle.append(str(p))
            p = perm[p - 1]
        if len(cycle) > 1:
            out.append("(" + " ".join(cycle) + ")")
    return "".join(out)


_PERM_GENS = st.integers(2, 5).flatmap(lambda n: st.lists(
    st.permutations(range(1, n + 1)).filter(lambda p: p != sorted(p)),
    min_size=1, max_size=3))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(gens=_PERM_GENS)
def test_random_perm_lattices_match_every_zuppo_oracle(gens):
    g = build_group("perm:" + ";".join(_cycles(p) for p in gens))
    assert _lattice_layout(subgroup_lattice(g)) == lattice_by_every_zuppo(g)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(gens=_PERM_GENS)
def test_random_perm_marks_rows_match_class_mask_oracle(gens):
    lat = subgroup_lattice(build_group("perm:" + ";".join(_cycles(p) for p in gens)))
    assert lat.marks_rows == _nonzeros(marks_by_class_masks(lat))


def test_is_homomorphism_checks_the_identity_and_every_generator():
    c1, c2, c4 = build_group("C1"), build_group("C2"), build_group("C4")
    v4 = build_group("prod(C2,C2)")
    assert is_homomorphism(c1, c2, [0])
    assert not is_homomorphism(c1, c2, [1])  # C1 has no generators
    assert is_homomorphism(c4, c2, [x % 2 for x in range(4)])
    assert not is_homomorphism(c4, v4, [0, 1, 2, 3])  # bijective, but not a homomorphism
    s3 = build_group("S3")
    for g0 in s3.elements():
        assert is_homomorphism(s3, s3, [s3.conj(g0, x) for x in s3.elements()])


@pytest.mark.parametrize("spec,n_subs,n_classes", [
    ("S5", 156, 19),
    (A5, 59, 9),
    ("prod(S4,C2)", 98, 33),
    (C2_5, 374, 374),
    ("prod(D8,D8)", 389, 214),
])
def test_lattice_counts_of_larger_groups(spec, n_subs, n_classes):
    lat = subgroup_lattice(build_group(spec))
    assert len(lat.subgroups) == n_subs
    assert lat.class_count == n_classes
    assert sum(len(c.member_indices) for c in lat.classes) == n_subs


@pytest.mark.parametrize("spec,digest", [
    ("S4", "2079d15c3ee0994d"),
    ("prod(S3,S3)", "1dcf743efb212ac7"),
    ("prod(D8,D8)", "dded4d997a332d00"),
    ("perm:(1 2)(3 4 5 6);(1 2)(3 4)", "7504820436472a0c"),  # S4 on 6 points
    ("S5", "047489b228611cf5"),
    ("prod(S4,S3)", "306e3aa98d447b86"),
    ("prod(D12,D12)", "6552a4afe4955f34"),
])
def test_lattice_layout_is_pinned(spec, digest):
    # members, labels, representatives and class map, as recorded from the
    # earlier breadth-first enumeration over generator sets; the last three
    # from the cyclic extension that joined every zuppo, conjugates included
    lat = subgroup_lattice(build_group(spec))
    layout = [[list(s.members) for s in lat.subgroups], lat.labels(),
              [c.rep_index for c in lat.classes], list(lat.class_of)]
    assert hashlib.sha256(json.dumps(layout).encode()).hexdigest()[:16] == digest


def _nonzeros(matrix):
    return tuple(tuple((j, m) for j, m in enumerate(row) if m) for row in matrix)


@pytest.mark.parametrize("spec", ["S4", "D16", "prod(S3,S3)", C2_5, "prod(S4,C2)",
                                  A5, "prod(D8,S3)", "prod(C3,S4)", "prod(D8,D8)",
                                  "S5", "prod(D12,D12)"])
def test_marks_match_class_mask_oracle(spec):
    # the lattice-ladder groups: the supergroup walk against the formula it
    # replaced, which tests every class member against every column rep;
    # the sparse rows are the primary form and the dense table their view
    lat = subgroup_lattice(build_group(spec))
    oracle = marks_by_class_masks(lat)
    assert lat.marks_rows == _nonzeros(oracle)
    assert lat.marks == oracle


@pytest.mark.parametrize("spec", LADDER_SPECS)
def test_containment_index_matches_mask_scan(spec):
    # bitsets of the subgroups holding each element, ANDed over K's
    # members, against testing every pair of masks
    lat = subgroup_lattice(build_group(spec))
    assert lat.below == containment_by_mask_scan(lat)


def test_lattice_cap_is_checked_during_enumeration(monkeypatch):
    from burnside import groups
    from burnside.errors import ResourceBoundError
    c2_5 = build_group(C2_5)
    # relabel x -> 31 - x, so this table is new to the lattice cache
    g = Group([[31 - c2_5.mul(31 - a, 31 - b) for b in range(32)]
               for a in range(32)], identity=31)
    assert g not in groups._LATTICE_CACHE
    monkeypatch.setattr(groups, "DEFAULT_SUBGROUP_CAP", 100)
    with pytest.raises(ResourceBoundError):
        subgroup_lattice(g)
    assert g not in groups._LATTICE_CACHE
    monkeypatch.setattr(groups, "DEFAULT_SUBGROUP_CAP", 374)
    assert len(subgroup_lattice(g).subgroups) == 374


def test_lattice_cache_is_a_bounded_lru():
    from burnside.groups import LATTICE_CACHE_SIZE, _LATTICE_CACHE
    cyclics = [build_group(f"C{n}") for n in range(1, LATTICE_CACHE_SIZE + 2)]
    first = subgroup_lattice(cyclics[0])
    labels, marks = first.labels(), first.marks
    for g in cyclics[1:]:
        subgroup_lattice(g)
        assert len(_LATTICE_CACHE) <= LATTICE_CACHE_SIZE
    assert cyclics[0] not in _LATTICE_CACHE
    rebuilt = subgroup_lattice(build_group("C1"))
    assert rebuilt is not first
    assert rebuilt.labels() == labels and rebuilt.marks == marks


def test_structural_equality_shares_caches():
    a = build_group("S3")
    b = build_group("S3")
    assert a == b and hash(a) == hash(b)
    assert subgroup_lattice(a) is subgroup_lattice(b)


def _perm_spec(gens):
    return "perm:" + ";".join(_cycles(p) for p in gens)


# perm: groups on up to 5 points, and products of one on up to 4 points
# with a small named group (order at most 72)
_BUILT_SPECS = st.one_of(
    _PERM_GENS.map(_perm_spec),
    st.tuples(st.integers(2, 4).flatmap(lambda n: st.lists(
        st.permutations(range(1, n + 1)).filter(lambda p: p != sorted(p)),
        min_size=1, max_size=2)).map(_perm_spec),
        st.sampled_from(["C1", "C2", "C3"]), st.booleans()).map(
        lambda t: f"prod({t[0]},{t[1]})" if t[2] else f"prod({t[1]},{t[0]})"))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(spec=_BUILT_SPECS)
def test_built_objects_equal_the_checked_ones(spec):
    from burnside.algebra import BurnsideElement, idempotent_system, multiply
    from burnside.rings import QQ, ZZ, Zmod

    g = build_group(spec)  # every spec builder and direct_product use _built
    checked = Group(g.mul_table, identity=g.identity, label=g.label)
    assert checked == g and hash(checked) == hash(g)
    assert (checked.inv_table, checked.generators) == (g.inv_table, g.generators)
    lat = subgroup_lattice(g)
    centralizers = [cz for _, _, cz in element_classes(g)]
    for s in (*lat.subgroups, *centralizers):
        c = Subgroup(g, reversed(s.members))
        assert (c, c.members, c.mask) == (s, s.members, s.mask)
    for ci in range(lat.class_count):
        sub = lat.class_rep(ci).as_group()
        c = Group(sub.mul_table, identity=sub.identity, label=sub.label)
        assert (c, c.inv_table, c.generators) == (sub, sub.inv_table, sub.generators)
    n = lat.class_count
    # keys out of order and zero coefficients, as sums and products give them
    for ring in (ZZ, Zmod(6)):
        coeffs = {k: ring.from_int(k % 3) for k in reversed(range(n))}
        built, public = (BurnsideElement._built(g, ring, coeffs),
                         BurnsideElement(g, ring, coeffs))
        assert list(built.coeffs.items()) == list(public.coeffs.items())
        x = multiply(built, public.add(BurnsideElement.basis(g, ring, 0)))
        assert list(x.coeffs.items()) == list(
            BurnsideElement(g, ring, dict(x.coeffs)).coeffs.items())
    for e in idempotent_system(g, QQ):
        assert list(e.coeffs.items()) == list(
            BurnsideElement(g, QQ, dict(reversed(e.coeffs.items()))).coeffs.items())
