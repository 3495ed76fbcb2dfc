import hashlib
import json

import pytest

from burnside.algebra import (
    BurnsideElement,
    _gamma_times,
    _orbit_count,
    ghost,
    identity_element,
    mackey_check,
    mark,
    marks_vector,
    multiply,
)
from burnside.bisets import (
    apply_biset,
    compose,
    diagonal_induce,
    diagonal_merge_gsets,
    diagonal_product,
    diagonal_restrict,
    elementary_induction,
    elementary_iso,
    elementary_restriction,
    external_product,
    gamma,
    gset_as_biset,
    biset_as_gset,
    identity_biset,
    permute_factors_element,
    permute_factors_gset,
    product_of,
    trivial_group,
)
from burnside.errors import (
    FactorMismatchError,
    GroupMismatchError,
    NotAnIsomorphismError,
    NotAProductGroupError,
)
from burnside.groups import (
    MAX_GROUP_ORDER,
    Subgroup,
    build_group,
    diagonal_subgroup,
    direct_product,
    element_classes,
    squared,
    subgroup_lattice,
    trivial_subgroup,
)
from burnside.gsets import (
    conjugation_gset,
    decompose,
    fixed_points,
    from_gset,
    induce,
    iso_equal,
    product,
    restrict,
    transitive,
    transitive_of_class,
)
from burnside.rings import QQ, ZZ, Zmod


def test_elementary_sizes():
    c2 = build_group("C2")
    ind = elementary_induction(c2, trivial_subgroup(c2))
    assert ind.size == 2 and ind.left == c2 and ind.right.order == 1
    s3 = build_group("S3")
    lat = subgroup_lattice(s3)
    res = elementary_restriction(s3, lat.class_rep(1))
    assert res.size == 6 and res.left.order == 2 and res.right == s3


def test_identity_biset_is_diagonal_class():
    s3 = build_group("S3")
    idb = identity_biset(s3)
    gg = squared(s3)
    dec = decompose(idb.carrier.rehomed(gg))
    assert len(dec.parts) == 1
    stab = dec.parts[0].stabilizer
    assert stab.members == tuple(x * 6 + x for x in range(6))


def test_iso_requires_isomorphism():
    c4 = build_group("C4")
    v4 = build_group("prod(C2,C2)")
    with pytest.raises(NotAnIsomorphismError):
        elementary_iso(c4, v4, [0, 1, 2, 3])
    with pytest.raises(NotAnIsomorphismError):
        elementary_iso(c4, c4, [0, 0, 0, 0])
    with pytest.raises(NotAnIsomorphismError, match="bijection"):
        elementary_iso(build_group("C1"), build_group("C2"), [1])
    # a bijection of S3 that fixes the identity but swaps two of its
    # three involutions only: no automorphism does that and fixes the rest
    s3 = build_group("S3")
    invols = [x for x in s3.elements() if s3.element_order(x) == 2]
    mapping = list(s3.elements())
    mapping[invols[0]], mapping[invols[1]] = invols[1], invols[0]
    with pytest.raises(NotAnIsomorphismError, match="not a homomorphism"):
        elementary_iso(s3, s3, mapping)
    # C2 x C2 swap of factors is an automorphism
    swap = [v4.encode((b, a)) for a, b in (v4.decode(x) for x in v4.elements())]
    elementary_iso(v4, v4, swap)


def test_apply_inner_automorphism_is_trivial():
    # conjugation isomorphisms act trivially on the Burnside ring
    s3 = build_group("S3")
    lat = subgroup_lattice(s3)
    for g0 in (1, 3):
        mapping = [s3.conj(g0, x) for x in s3.elements()]
        iso = elementary_iso(s3, s3, mapping)
        for ci in range(lat.class_count):
            a = BurnsideElement.basis(s3, ZZ, ci)
            assert apply_biset(iso, a) == a


def test_apply_outer_automorphism_permutes_classes():
    # swapping the factors of C2 x C2 permutes the three order-2 classes
    # the same way it moves their representative subgroups
    v4 = build_group("prod(C2,C2)")
    lat = subgroup_lattice(v4)
    swap = [v4.encode((b, a)) for a, b in (v4.decode(x) for x in v4.elements())]
    iso = elementary_iso(v4, v4, swap)
    for ci in range(lat.class_count):
        a = BurnsideElement.basis(v4, ZZ, ci)
        got = apply_biset(iso, a)
        rep = lat.class_rep(ci)
        image = Subgroup(v4, [swap[m] for m in rep.members])
        expect_ci = lat.class_of[lat.subgroup_index(image.members)]
        assert got == BurnsideElement.basis(v4, ZZ, expect_ci)


def test_compose_with_identity():
    s3 = build_group("S3")
    lat = subgroup_lattice(s3)
    u = elementary_induction(s3, lat.class_rep(2))
    comp = compose(identity_biset(s3), u)
    assert iso_equal(comp.carrier.rehomed(u.carrier.group), u.carrier)


def test_compose_middle_mismatch():
    s3 = build_group("S3")
    c2 = build_group("C2")
    lat = subgroup_lattice(s3)
    u = elementary_restriction(s3, lat.class_rep(1))  # (C2', S3)
    v = elementary_induction(c2, trivial_subgroup(c2))  # (C2, 1)
    with pytest.raises(GroupMismatchError):
        compose(v, u)


@pytest.mark.parametrize("spec", ["S3", "D8"])
def test_res_ind_double_coset_formula(spec):
    # Res_K Ind_H applied to the point decomposes over K\G/H as
    # [K / (K meet gHg^-1)]
    g = build_group(spec)
    lat = subgroup_lattice(g)
    for ki in range(lat.class_count):
        k = lat.class_rep(ki)
        kg = k.as_group()
        klat = subgroup_lattice(kg)
        for hi in range(lat.class_count):
            h = lat.class_rep(hi)
            hg = h.as_group()
            point = transitive(hg, Subgroup(hg, range(hg.order)))
            u = compose(elementary_restriction(g, k),
                        elementary_induction(g, h))
            got = decompose(biset_as_gset(compose(u, gset_as_biset(point))))

            # enumerate double cosets KgH by brute force
            seen = set()
            expected = {}
            hset = set(h.members)
            for x in g.elements():
                if x in seen:
                    continue
                coset = {g.mul(g.mul(a, x), b)
                         for a in k.members for b in h.members}
                seen |= coset
                inter = [m for m in k.members
                         if g.mul(g.mul(g.inv(x), m), x) in hset]
                sub = Subgroup(kg, [k.members.index(m) for m in inter])
                label = klat.class_label_of_subgroup(sub)
                expected[label] = expected.get(label, 0) + 1
            assert got.multiplicities() == expected


def test_apply_identity_and_induction():
    s3 = build_group("S3")
    lat = subgroup_lattice(s3)
    a = gamma(s3, ZZ).add(identity_element(s3, ZZ).scale(3))
    assert apply_biset(identity_biset(s3), a) == a

    h = lat.class_rep(1)
    hg = h.as_group()
    ind = elementary_induction(s3, h)
    point = identity_element(hg, ZZ)
    assert apply_biset(ind, point) == BurnsideElement.basis(s3, ZZ, 1)


def test_apply_is_functorial_over_composition():
    g = build_group("D8")
    lat = subgroup_lattice(g)
    h = lat.class_rep(4)
    hg = h.as_group()
    u = elementary_restriction(g, h)   # (H', G)
    v = elementary_induction(g, h)     # (G, H')
    comp = compose(u, v)               # (H', H')
    hlat = subgroup_lattice(hg)
    for ci in range(hlat.class_count):
        a = BurnsideElement.basis(hg, ZZ, ci)
        assert apply_biset(comp, a) == apply_biset(u, apply_biset(v, a))


@pytest.mark.parametrize("spec", ["C4", "D8", "Q8"])
def test_compose_associativity_up_to_iso(spec):
    g = build_group(spec)
    lat = subgroup_lattice(g)
    h = next(lat.class_rep(ci) for ci in range(lat.class_count)
             if 1 < lat.class_rep(ci).order < g.order)
    hg = h.as_group()
    hlat = subgroup_lattice(hg)
    l = hlat.class_rep(1) if hlat.class_count > 1 else hlat.class_rep(0)
    triples = [
        (elementary_induction(g, h), elementary_induction(hg, l),
         elementary_restriction(hg, l)),
        (elementary_restriction(g, h), elementary_induction(g, h),
         elementary_restriction(g, h)),
        (identity_biset(g), elementary_induction(g, h),
         elementary_restriction(hg, l)),
    ]
    for u, v, w in triples:
        left = compose(compose(u, v), w)
        right = compose(u, compose(v, w))
        assert left.carrier.group == right.carrier.group
        assert iso_equal(left.carrier, right.carrier)


def test_compose_diagonal_induction_with_point():
    # the (GG, Delta(G))-biset GG glued against the one-point set has
    # |GG : Delta(G)| classes
    c2 = build_group("C2")
    gg = squared(c2)
    delta = Subgroup(gg, [0, 3])
    ind = elementary_induction(gg, delta)
    dg = delta.as_group()
    point = transitive(dg, Subgroup(dg, range(dg.order)))
    quotient = compose(ind, gset_as_biset(point))
    assert quotient.size == 2
    assert quotient.left == gg


def test_apply_restriction_matches_gset_restrict():
    for spec in ("S3", "D8"):
        g = build_group(spec)
        lat = subgroup_lattice(g)
        for ki in range(lat.class_count):
            k = lat.class_rep(ki)
            res_biset = elementary_restriction(g, k)
            for ci in range(lat.class_count):
                a = BurnsideElement.basis(g, ZZ, ci)
                via_biset = apply_biset(res_biset, a)
                x = restrict(transitive(g, lat.class_rep(ci)), k)
                via_gset = from_gset(x.rehomed(k.as_group()), ZZ)
                assert via_biset == via_gset


def test_apply_ind_res_is_multiplication_by_coset_class():
    # Ind_H(Res_H(a)) = [G/H] * a
    for spec in ("S3", "D8"):
        g = build_group(spec)
        lat = subgroup_lattice(g)
        for hi in range(lat.class_count):
            h = lat.class_rep(hi)
            u = compose(elementary_induction(g, h),
                        elementary_restriction(g, h))
            coset_class = BurnsideElement.basis(g, ZZ, hi)
            for ci in range(lat.class_count):
                a = BurnsideElement.basis(g, ZZ, ci)
                assert apply_biset(u, a) == multiply(coset_class, a)


def test_external_product_of_points_and_free_sets():
    c2 = build_group("C2")
    one = identity_element(c2, ZZ)
    prod_one = external_product(one, one)
    assert prod_one == identity_element(prod_one.group, ZZ)

    free = BurnsideElement.basis(c2, ZZ, 0)
    ext = external_product(free, free)
    v4 = ext.group
    lat = subgroup_lattice(v4)
    assert ext.coeffs == {0: 1}
    assert lat.class_rep(0).order == 1  # the regular class of C2 x C2

    # sizes multiply under the trivial mark
    a = gamma(c2, ZZ)
    b = free.scale(2)
    ext2 = external_product(a, b)
    assert mark(ext2, "1#1") == mark(a, "1#1") * mark(b, "1#1")


def test_gamma_values_and_marks():
    c2 = build_group("C2")
    assert gamma(c2).coeffs == {1: 2}
    s3 = build_group("S3")
    lat = subgroup_lattice(s3)
    gam = gamma(s3)
    assert gam.coeffs == {1: 1, 2: 1, 3: 1}
    assert mark(gam, "1#1") == 6
    # marks of the conjugation class are the centralizer orders
    for spec in ("C2", "C4", "S3", "D8", "Q8", "prod(C2,C2)"):
        g = build_group(spec)
        glat = subgroup_lattice(g)
        gm = marks_vector(gamma(g))
        for ci in range(glat.class_count):
            h = glat.class_rep(ci)
            cz = [x for x in g.elements()
                  if all(g.mul(x, m) == g.mul(m, x) for m in h.members)]
            assert gm[ci] == len(cz)
    # gamma is one orbit per element class
    cls = element_classes(s3)
    expect = BurnsideElement.zero(s3, ZZ)
    for rep, _, cz in cls:
        ci = lat.class_of[lat.subgroup_index(cz.members)]
        expect = expect.add(BurnsideElement.basis(s3, ZZ, ci))
    assert gam == expect


def test_diagonal_induce_sends_classes_to_diagonals():
    for spec in ("C2", "C3", "S3"):
        g = build_group(spec)
        lat = subgroup_lattice(g)
        gg = squared(g)
        gglat = subgroup_lattice(gg)
        n = g.order
        for ci in range(lat.class_count):
            a = BurnsideElement.basis(g, ZZ, ci)
            ind = diagonal_induce(a)
            rep = lat.class_rep(ci)
            diag_members = [x * n + x for x in rep.members]
            expect_class = gglat.class_of[gglat.subgroup_index(diag_members)]
            assert ind.coeffs == {expect_class: 1}


def test_diagonal_induce_linearity():
    c2 = build_group("C2")
    a = BurnsideElement.basis(c2, ZZ, 0).scale(2)
    ind = diagonal_induce(a)
    single = diagonal_induce(BurnsideElement.basis(c2, ZZ, 0))
    assert ind == single.scale(2)


def test_diagonal_restrict_point():
    for spec in ("C2", "S3"):
        g = build_group(spec)
        gg = squared(g)
        one_gg = identity_element(gg, ZZ)
        assert diagonal_restrict(one_gg) == identity_element(g, ZZ)


def test_diagonal_restrict_of_diagonal_class():
    # [GG/Delta(C2)] has two cosets, both fixed by the diagonal:
    # the restriction is 2[C2/C2] (this also matches gamma * [C2/C2])
    c2 = build_group("C2")
    ind = diagonal_induce(identity_element(c2, ZZ))
    res = diagonal_restrict(ind)
    assert res == identity_element(c2, ZZ).scale(2)
    assert res == multiply(gamma(c2), identity_element(c2, ZZ))


def test_diagonal_restrict_requires_square():
    c2 = build_group("C2")
    c4 = build_group("C4")
    p = direct_product(c2, c4)
    with pytest.raises(NotAProductGroupError):
        diagonal_restrict(identity_element(p, ZZ))


@pytest.mark.parametrize("gg", ["C36", "prod(S3,S3)"])
def test_diagonal_induce_needs_the_square_of_its_group(gg):
    # C36 has order 6^2 but is no product; S3 x S3 is the wrong square
    c6 = build_group("C6")
    with pytest.raises(NotAProductGroupError):
        diagonal_induce(BurnsideElement.basis(c6, ZZ, 0), gg=build_group(gg))


@pytest.mark.parametrize("spec", ["C6", "S3", "prod(C2,C2)"])
def test_diagonal_induce_with_and_without_gg(spec):
    g = build_group(spec)
    gg, copy = squared(g), squared(build_group(spec))
    for ci in range(subgroup_lattice(g).class_count):
        a = BurnsideElement.basis(g, ZZ, ci)
        ind = diagonal_induce(a)
        assert diagonal_induce(a, gg=gg) == ind
        assert diagonal_induce(a, gg=copy) == ind
        assert diagonal_induce(a, gg=gg).group is gg


@pytest.mark.parametrize("bad", [1.5, 1.0, "1"])
def test_elementary_iso_refuses_a_non_int_map(bad):
    c2 = build_group("C2")
    assert elementary_iso(c2, c2, [0, 1]).size == 2
    with pytest.raises(NotAnIsomorphismError, match="bijection"):
        elementary_iso(c2, c2, [0, bad])
    with pytest.raises(NotAnIsomorphismError):
        elementary_iso(c2, c2, [0.3, 1.2])  # once read as [0, 1]


@pytest.mark.parametrize("spec", ["C2", "C3", "prod(C2,C2)", "S3"])
def test_mackey_identity_on_basis(spec):
    g = build_group(spec)
    lat = subgroup_lattice(g)
    gam = gamma(g, ZZ)
    marks, n = ghost(lat, gam.coeffs.items()), lat.class_count
    for ci in range(n):
        a = BurnsideElement.basis(g, ZZ, ci)
        left, right = diagonal_restrict(diagonal_induce(a)), multiply(gam, a)
        assert left == right
        # each side of mackey_check matches its oracle on this class
        assert _orbit_count(g, lat, ci) == [left.coeffs.get(k, 0) for k in range(n)]
        assert _gamma_times(lat, marks, ci) == [right.coeffs.get(k, 0) for k in range(n)]
    assert mackey_check(g) == [True] * n


@pytest.mark.parametrize("spec", [f"C{n}" for n in range(1, 16)]
                         + ["S3", "prod(C2,C2)", "D8", "Q8", "D10", "D12", "D14",
                            "prod(C2,prod(C2,C2))", "prod(C3,C3)"])
def test_res_ind_along_the_diagonal_is_conjugation_times_coset_set(spec):
    # (a, b)Delta(H) -> (a b^-1, bH) carries Res Ind [G/H] onto G_conj x G/H,
    # the G-set that mackey-check counts as orbits of H on G
    g = build_group(spec)
    conj = conjugation_gset(g)
    for ci in range(subgroup_lattice(g).class_count):
        x = product(conj, transitive_of_class(g, ci))
        a = BurnsideElement.basis(g, ZZ, ci)
        assert from_gset(x, ZZ) == diagonal_restrict(diagonal_induce(a))


def test_diagonal_product_with_unit():
    # merging with the one-point set over 1 x G gives the same element back
    c2 = build_group("C2")
    one_g = trivial_group()
    eps_group = direct_product(one_g, c2)
    eps = identity_element(eps_group, ZZ)  # the single point, trivial action
    gg = squared(c2)
    for ci in range(subgroup_lattice(gg).class_count):
        a = BurnsideElement.basis(gg, ZZ, ci)
        merged = diagonal_product(a, eps, 1, 1,
                                  layout=[("a", 0), "shared", ("b", 0)])
        # result group (C2 x C2) x 1 has the same table as C2 x C2
        back = BurnsideElement(gg, ZZ,
                               {k: v for k, v in merged.coeffs.items()})
        lat_m = subgroup_lattice(merged.group)
        lat_gg = subgroup_lattice(gg)
        got = {}
        for k, v in merged.coeffs.items():
            members = lat_m.class_rep(k).members
            got[lat_gg.class_of[lat_gg.subgroup_index(members)]] = v
        assert got == a.coeffs


def test_diagonal_merge_matches_one_sided_inductions():
    # u x^G1 m and m x^G2 u agree with inductions along (a,a,b) and (d,c,d)
    from burnside.gsets import induce_along
    from helpers import _embed_d13, _embed_delta_g

    g = build_group("C2")
    gg = squared(g)
    ggg = product_of([g, g, g])
    lat = subgroup_lattice(gg)
    u_carrier = identity_biset(g).carrier.rehomed(gg)
    for ci in range(lat.class_count):
        m = transitive_of_class(gg, ci)
        lhs1 = diagonal_merge_gsets(u_carrier, m, 1, 0,
                                    layout=[("a", 0), "shared", ("b", 1)])
        rhs1 = induce_along(m, _embed_delta_g(g), ggg)
        assert lhs1.group == rhs1.group
        assert iso_equal(lhs1.rehomed(rhs1.group), rhs1)
        lhs2 = diagonal_merge_gsets(m, u_carrier, 1, 1,
                                    layout=[("b", 0), ("a", 0), "shared"])
        rhs2 = induce_along(m, _embed_d13(g), ggg)
        assert lhs2.group == rhs2.group
        assert iso_equal(lhs2.rehomed(rhs2.group), rhs2)


def test_diagonal_classes_commute_up_to_factor_swap():
    # [GG/Delta(L)] x^G2 alpha vs alpha x^G1 [GG/Delta(L)] after swapping
    # the two merged G slots
    g = build_group("C2")
    gg = squared(g)
    lat_g = subgroup_lattice(g)
    lat_gg = subgroup_lattice(gg)
    alphas = [transitive_of_class(gg, ci) for ci in range(lat_gg.class_count)]
    for lj in range(lat_g.class_count):
        m = diagonal_induce(BurnsideElement.basis(g, ZZ, lj))
        (mi,) = m.coeffs
        mset = transitive_of_class(gg, mi)
        for alpha in alphas:
            left = diagonal_merge_gsets(mset, alpha, 1, 1,
                                        layout=[("b", 0), ("a", 0), "shared"])
            right = diagonal_merge_gsets(alpha, mset, 1, 0,
                                         layout=[("a", 0), "shared", ("b", 1)])
            swapped = permute_factors_gset(right, (0, 2, 1))
            assert swapped.group == left.group
            assert iso_equal(swapped.rehomed(left.group), left)


def test_diagonal_merge_factor_errors():
    c2 = build_group("C2")
    c3 = build_group("C3")
    x = transitive_of_class(direct_product(c2, c3), 0)
    y = transitive_of_class(squared(c2), 0)
    with pytest.raises(FactorMismatchError):
        diagonal_merge_gsets(x, y, 1, 0)  # C3 factor vs C2 factor
    with pytest.raises(FactorMismatchError):
        diagonal_merge_gsets(y, y, 0, 0, layout=[("a", 1), "shared"])
    # a token given twice covers the same factors but adds one to the product
    z = transitive_of_class(direct_product(c3, c2), 1)
    with pytest.raises(FactorMismatchError, match="all non-shared factors once"):
        diagonal_merge_gsets(z, z, 1, 1,
                             layout=[("a", 0), ("a", 0), ("b", 0), "shared"])


# sha256 of composed carriers: points are numbered by their least pair
# x*|v| + y, and these digests pin that numbering
@pytest.mark.parametrize("spec,digest", [
    ("S3", "903b7a71ce625608457da36a2dc8d8a948b9bf51d6a62f02afc2256c8dffa813"),
    ("D8", "ee7837a6803e8a51a631438679fc32cc7c31d1185eb30750cd90459aa6930dd0"),
    ("D10", "e4028d31f5aa638d89c2fd4ded81b216d1fe9c14f3226f1dfd755b4a5a5c89fc"),
    ("prod(C2,C4)", "5f0d811c49e34b24f1ed22ed697bd8f8f0ba2913289240b9969f653d7822ba76"),
])
def test_compose_action_tables_are_pinned(spec, digest):
    """Res o Ind and Ind o Res for every subgroup class, and Id o G/H."""
    k = build_group(spec)
    lat = subgroup_lattice(k)
    assert k.order ** 2 <= MAX_GROUP_ORDER
    tables = []
    for ci in range(lat.class_count):
        h = lat.class_rep(ci)
        ind, res = elementary_induction(k, h), elementary_restriction(k, h)
        tables.append(compose(res, ind).carrier.action)
        tables.append(compose(ind, res).carrier.action)
        x = gset_as_biset(transitive(k, h))
        tables.append(compose(identity_biset(k), x).carrier.action)
    assert hashlib.sha256(json.dumps(tables).encode()).hexdigest() == digest


def test_permute_factors_element_roundtrip():
    c2 = build_group("C2")
    c3 = build_group("C3")
    p = direct_product(c2, c3)
    lat = subgroup_lattice(p)
    for ci in range(lat.class_count):
        a = BurnsideElement.basis(p, ZZ, ci)
        b = permute_factors_element(a, (1, 0))
        back = permute_factors_element(b, (1, 0))
        assert back.coeffs == a.coeffs
        assert fixed_points(transitive_of_class(p, ci),
                            trivial_subgroup(p)) == \
            fixed_points(transitive_of_class(b.group, next(iter(b.coeffs))),
                         trivial_subgroup(b.group))


# Oracles for the lattice readings: gamma, diagonal induction and the
# factor permutation against the concrete sets they stand for

A5 = "perm:(1 2 3 4 5);(1 2 3)"


@pytest.mark.parametrize("spec", ["C1", "Q8", "S3", "D12", A5, "S4", "S5",
                                  "prod(S3,S3)", "prod(C2,prod(C2,prod(C2,C2)))"])
def test_gamma_matches_conjugation_gset(spec):
    g = build_group(spec)
    x = conjugation_gset(g)
    for ring in (ZZ, QQ, Zmod(6)):
        gam = gamma(g, ring)
        assert gam == from_gset(x, ring)
        assert gam.group is g


@pytest.mark.parametrize("spec", [f"C{n}" for n in range(1, 16)]
                         + ["Q8", "D12", "prod(C2,prod(C2,C2))"])
def test_diagonal_induce_matches_concrete_induction(spec):
    g = build_group(spec)
    gg = squared(g)
    delta = diagonal_subgroup(g, gg)
    dg = delta.as_group()
    lat = subgroup_lattice(g)
    total, expect = BurnsideElement.zero(g, ZZ), BurnsideElement.zero(gg, ZZ)
    for ci in range(lat.class_count):
        a = BurnsideElement.basis(g, ZZ, ci).scale(3)
        x = induce(transitive_of_class(g, ci).rehomed(dg), delta, gg)
        assert diagonal_induce(a, gg) == from_gset(x, ZZ).scale(3)
        # and linearly, with a different coefficient on each class
        total = total.add(BurnsideElement.basis(g, ZZ, ci).scale(ci + 1))
        expect = expect.add(from_gset(x, ZZ).scale(ci + 1))
    assert diagonal_induce(total, gg) == expect


@pytest.mark.parametrize("spec", [f"C{n}" for n in range(1, 16)]
                         + ["Q8", "D12", "prod(C2,prod(C2,C2))"])
def test_diagonal_restrict_matches_restriction_to_the_diagonal_subgroup(spec):
    # the rows at (x, x) against the G x G-set restricted to Delta(G) as a
    # Subgroup, carried over to G
    g = build_group(spec)
    gg = squared(g)
    delta = diagonal_subgroup(g, gg)
    n = subgroup_lattice(gg).class_count
    expect = BurnsideElement.zero(g, ZZ)
    for ci in range(n):
        x = from_gset(
            restrict(transitive_of_class(gg, ci), delta).rehomed(g), ZZ)
        res = diagonal_restrict(BurnsideElement.basis(gg, ZZ, ci))
        assert res == x
        assert res.group is g
        expect = expect.add(x.scale(ci + 1))
    # and linearly, with a different coefficient on each class
    total = BurnsideElement(gg, ZZ, {ci: ci + 1 for ci in range(n)})
    assert diagonal_restrict(total) == expect


@pytest.mark.parametrize("spec,perm", [
    ("prod(C2,C3)", (1, 0)),
    ("prod(S3,C2)", (1, 0)),
    ("prod(C2,prod(C2,C4))", (2, 0, 1)),
    ("prod(S3,prod(C2,C3))", (1, 2, 0)),
    ("prod(D8,prod(C2,C2))", (0, 2, 1)),
])
def test_permute_factors_element_matches_gset(spec, perm):
    g = build_group(spec)
    n = subgroup_lattice(g).class_count
    for ring in (ZZ, Zmod(6)):
        xs = [from_gset(
            permute_factors_gset(transitive_of_class(g, ci), perm), ring)
            for ci in range(n)]
        five = ring.from_int(5)
        for ci, x in enumerate(xs):
            a = BurnsideElement.basis(g, ring, ci).scale(five)
            assert permute_factors_element(a, perm) == x.scale(five)
        # and linearly, with a different coefficient on each class
        total = BurnsideElement(g, ring, {ci: ring.from_int(ci + 1) for ci in range(n)})
        expect = BurnsideElement.zero(xs[0].group, ring)
        for ci, x in enumerate(xs):
            expect = expect.add(x.scale(ring.from_int(ci + 1)))
        assert permute_factors_element(total, perm) == expect
