"""Concrete bisets and the diagonal product calculus.

This module is in the concrete layer above the engine: it imports
``algebra``, ``groups`` and ``gsets``, and no engine module imports it.
An (H, G)-biset is carried as a set with an action of the product group
H x G, the right action being encoded through inverses:
(h, g).x = h x g^-1.  Composition and the diagonal products are then
plain orbit/quotient computations on carriers, which keeps every
identity checkable against explicit decompositions.  Diagonal
induction has its orbits in closed form, so it is read off the subgroup
lattice instead, by ``algebra._image_classes``, and no G-set is built.
Mackey's diagonal restriction reads each G x G-set at the rows (x, x),
as a G-set over G itself.  The conjugation class ``gamma`` and the
Mackey check ``mackey_check`` live in ``algebra``, and no command
reaches this module: ``diagonal_induce``, ``diagonal_restrict`` and the
G-set G_conj x G/H are the reference routes the tests check
``mackey_check`` against.

Product groups carry an ordered factor list; the diagonal operations
take explicit factor indices and an explicit output layout, because the
result of merging a shared factor genuinely depends on where that factor
sits in the output product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .algebra import BurnsideElement, _image_classes
from .algebra import gamma  # noqa: F401  perfbench traces it as bisets.gamma
from .errors import (
    FactorMismatchError,
    GroupMismatchError,
    NotAnIsomorphismError,
    NotAProductGroupError,
    NotContainedError,
    RingMismatchError,
)
from .groups import (
    Group,
    Subgroup,
    _cyclic,
    balanced_product,
    direct_product,
    is_homomorphism,
    squared,
    subgroup_lattice,
)
from .gsets import GSet, from_gset, transitive_of_class

_TRIVIAL = _cyclic(1)


def trivial_group() -> Group:
    return _TRIVIAL


@dataclass(frozen=True)
class Biset:
    """An (left, right)-biset carried as a GSet over left x right."""

    left: Group
    right: Group
    carrier: GSet

    def __post_init__(self):
        expected = self.left.order * self.right.order
        if self.carrier.group.order != expected:
            raise GroupMismatchError("carrier group must be left x right")

    @property
    def size(self):
        return self.carrier.size


def _biset(left: Group, right: Group, base: Group, lmap, rmap) -> Biset:
    """The (left, right)-biset base with (a, b).x = lmap[a] x rmap[b]^-1."""
    p = direct_product(left, right)
    mul, inv = base.mul_table, base.inv_table
    action = []
    for a in left.elements():
        row_a = mul[lmap[a]]
        for b in right.elements():
            binv = inv[rmap[b]]
            action.append([mul[row_a[x]][binv] for x in base.elements()])
    return Biset(left, right, GSet(p, action))


def elementary_induction(g: Group, h: Subgroup) -> Biset:
    """The (G, H)-biset G for h <= g: (a, b).x = a x b^-1."""
    if h.parent != g:
        raise NotContainedError("subgroup of a different group")
    return _biset(g, h.as_group(), g, g.elements(), h.members)


def elementary_restriction(g: Group, h: Subgroup) -> Biset:
    """The (H, G)-biset G for h <= g: (a, b).x = a x b^-1 via the inclusion."""
    if h.parent != g:
        raise NotContainedError("subgroup of a different group")
    return _biset(h.as_group(), g, g, h.members, g.elements())


def elementary_iso(src: Group, dst: Group, mapping) -> Biset:
    """The (dst, src)-biset src along a verified isomorphism src -> dst."""
    mapping = tuple(mapping)
    if (len(mapping) != src.order or not all(isinstance(x, int) for x in mapping)
            or sorted(mapping) != list(range(dst.order))):
        raise NotAnIsomorphismError("map is not a bijection onto dst")
    if not is_homomorphism(src, dst, mapping):
        raise NotAnIsomorphismError("map is not a homomorphism")
    inverse = [0] * dst.order
    for x, y in enumerate(mapping):
        inverse[y] = x
    return _biset(dst, src, src, inverse, src.elements())


def identity_biset(g: Group) -> Biset:
    return elementary_iso(g, g, list(g.elements()))


def compose(u: Biset, v: Biset) -> Biset:
    """The balanced product u x_M v over the middle group M: (x.m, y) ~ (x, m.y).

    Points are numbered by their least pair x*|v| + y; (h, k) in
    left x right acts as h on x and as k on y.
    """
    if u.right != v.left:
        raise GroupMismatchError("middle groups differ")
    mid, right = u.right, v.right
    ua, va = u.carrier.action, v.carrier.action
    # x.m = (e_left, m^-1).x on u; m.y = (m, e_right).y on v
    glue = [(ua[u.left.identity * mid.order + mid.inv_table[m]],
             va[m * right.order + right.identity]) for m in mid.generators]
    acts = [(ua[h * mid.order + mid.identity], va[mid.identity * right.order + k])
            for h in u.left.elements() for k in right.elements()]
    _, action = balanced_product(u.size, v.size, glue, acts)
    return Biset(u.left, right, GSet(direct_product(u.left, right), action))


def gset_as_biset(x: GSet) -> Biset:
    """Read a G-set as a (G, 1)-biset."""
    p = direct_product(x.group, _TRIVIAL)
    return Biset(x.group, _TRIVIAL, x.rehomed(p))


def biset_as_gset(u: Biset) -> GSet:
    """Collapse an (H, 1)-biset back to an H-set."""
    if u.right.order != 1:
        raise GroupMismatchError("only (H, 1)-bisets collapse to G-sets")
    return u.carrier.rehomed(u.left)


def _extend(a: BurnsideElement, target: Group, image) -> BurnsideElement:
    """Linear extension of [G/H] -> the class of image(G/H), a target-set."""
    out = BurnsideElement.zero(target, a.ring)
    for ci, coeff in a.coeffs.items():
        x = image(transitive_of_class(a.group, ci))
        out = out.add(from_gset(x, a.ring).scale(coeff))
    return out


def apply_biset(u: Biset, a: BurnsideElement) -> BurnsideElement:
    """Functorial action: linear extension of X -> decompose(u o X)."""
    if u.right != a.group:
        raise GroupMismatchError("biset right group must match the element")
    return _extend(a, u.left,
                   lambda x: biset_as_gset(compose(u, gset_as_biset(x))))


def external_product(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    """Bilinear extension of [A/P] x [B/Q] -> [(AxB)/(PxQ)]."""
    if a.ring != b.ring:
        raise RingMismatchError("external product needs one coefficient ring")
    ring = a.ring
    ga, gb = a.group, b.group
    p = direct_product(ga, gb)
    lat_a = subgroup_lattice(ga)
    lat_b = subgroup_lattice(gb)
    lat_p = subgroup_lattice(p)
    coeffs = {}
    for ci, ca in a.coeffs.items():
        pa = lat_a.class_rep(ci)
        for cj, cb in b.coeffs.items():
            qb = lat_b.class_rep(cj)
            members = [x * gb.order + y for x in pa.members for y in qb.members]
            target = lat_p.class_of[lat_p.subgroup_index(members)]
            val = ring.mul(ca, cb)
            coeffs[target] = ring.add(coeffs.get(target, ring.zero), val)
    return BurnsideElement(p, ring, coeffs)


# ---------------------------------------------------------------------------
# Diagonal products over a shared factor
# ---------------------------------------------------------------------------

def product_of(factors) -> Group:
    factors = list(factors)
    if not factors:
        return _TRIVIAL
    return reduce(direct_product, factors)


def default_layout(x: GSet, y: GSet, ix: int, iy: int):
    """Normal-form layout: a-factors, then b-factors, then the shared one."""
    la = [("a", i) for i in range(len(x.group.flat_factors)) if i != ix]
    lb = [("b", j) for j in range(len(y.group.flat_factors)) if j != iy]
    return la + lb + ["shared"]


def diagonal_merge_gsets(x: GSet, y: GSet, ix: int, iy: int, layout=None) -> GSet:
    """Cartesian product of carriers with the shared factor acting diagonally.

    ``ix``/``iy`` pick the shared factor inside each product group;
    ``layout`` lists the output factor order as ("a", i) / ("b", j)
    tokens plus one "shared" token.
    """
    fa = x.group.flat_factors
    fb = y.group.flat_factors
    if not (0 <= ix < len(fa)) or not (0 <= iy < len(fb)):
        raise FactorMismatchError("factor index out of range")
    if fa[ix] != fb[iy]:
        raise FactorMismatchError("shared factors have different structure")
    if layout is None:
        layout = default_layout(x, y, ix, iy)
    used_a = {t[1] for t in layout if isinstance(t, tuple) and t[0] == "a"}
    used_b = {t[1] for t in layout if isinstance(t, tuple) and t[0] == "b"}
    if (used_a != {i for i in range(len(fa)) if i != ix}
            or used_b != {j for j in range(len(fb)) if j != iy}
            or layout.count("shared") != 1
            or len(layout) != len(fa) + len(fb) - 1):
        raise FactorMismatchError("layout must cover all non-shared factors once")

    out_factors = []
    for token in layout:
        if token == "shared":
            out_factors.append(fa[ix])
        elif token[0] == "a":
            out_factors.append(fa[token[1]])
        else:
            out_factors.append(fb[token[1]])
    p = product_of(out_factors)

    ny = y.size
    action = []
    for w in p.elements():
        coords = p.decode(w)
        ca = [0] * len(fa)
        cb = [0] * len(fb)
        for c, token in zip(coords, layout):
            if token == "shared":
                ca[ix] = c
                cb[iy] = c
            elif token[0] == "a":
                ca[token[1]] = c
            else:
                cb[token[1]] = c
        xa = x.action[x.group.encode(ca)]
        yb = y.action[y.group.encode(cb)]
        action.append([xa[pt] * ny + yb[q] for pt in x.points() for q in y.points()])
    return GSet(p, action)


def diagonal_product(a: BurnsideElement, b: BurnsideElement,
                     ia: int, ib: int, layout=None) -> BurnsideElement:
    """Linear extension of the diagonal merge to algebra elements."""
    if a.ring != b.ring:
        raise RingMismatchError("diagonal product needs one coefficient ring")
    ring = a.ring
    out = None
    ys = {cj: transitive_of_class(b.group, cj) for cj in b.coeffs}
    for ci, ca in a.coeffs.items():
        x = transitive_of_class(a.group, ci)
        for cj, cb in b.coeffs.items():
            merged = diagonal_merge_gsets(x, ys[cj], ia, ib, layout)
            term = from_gset(merged, ring).scale(ring.mul(ca, cb))
            out = term if out is None else out.add(term)
    if out is None:
        raise FactorMismatchError("diagonal product of zero elements is ambiguous")
    return out


def permutation_of_factors(g: Group, perm):
    """Group iso data for reordering flat factors: new group + element map."""
    factors = g.flat_factors
    if sorted(perm) != list(range(len(factors))):
        raise FactorMismatchError("perm must permute the factor indices")
    new_factors = [factors[i] for i in perm]
    p = product_of(new_factors)
    mapping = [0] * g.order
    for w in p.elements():
        coords = p.decode(w)
        old = [0] * len(factors)
        for pos, c in zip(perm, coords):
            old[pos] = c
        mapping[w] = g.encode(old)
    return p, mapping


def permute_factors_gset(x: GSet, perm) -> GSet:
    """The same points, acted through the factor-permutation isomorphism."""
    p, mapping = permutation_of_factors(x.group, perm)
    action = [x.action[mapping[w]] for w in p.elements()]
    return GSet._built(p, action)


def permute_factors_element(a: BurnsideElement, perm) -> BurnsideElement:
    """Transport an element along a factor permutation of its group.

    The permutation is an isomorphism, so distinct classes go to
    distinct classes.
    """
    p, mapping = permutation_of_factors(a.group, perm)
    inverse = [0] * len(mapping)
    for w, old in enumerate(mapping):
        inverse[old] = w
    cls = _image_classes(a.group, p, inverse.__getitem__, a.coeffs)
    return BurnsideElement(p, a.ring, dict(zip(cls, a.coeffs.values())))


# ---------------------------------------------------------------------------
# The diagonal induction/restriction pair
# ---------------------------------------------------------------------------

def _diagonal_of(gg: Group) -> Group:
    """G, for a group gg recorded as the product G x G."""
    if len(gg.factors) != 2 or gg.factors[0] != gg.factors[1]:
        raise NotAProductGroupError(
            "operation needs a group recorded as a product G x G")
    return gg.factors[0]


def diagonal_induce(a: BurnsideElement, gg: Group | None = None) -> BurnsideElement:
    """Induce along the diagonal G = Delta(G) <= G x G; [G/L] -> [GG/Delta(L)].

    Delta(L) and Delta(L') are conjugate in G x G only if L and L' are
    conjugate in G, so distinct classes go to distinct classes.  A given
    gg must be recorded as a.group x a.group.
    """
    g = a.group
    gg = gg if gg is not None else squared(g)
    if _diagonal_of(gg) != g:
        raise NotAProductGroupError(f"gg must be {g.label} x {g.label}")
    n = g.order
    cls = _image_classes(g, gg, lambda x: x * n + x, a.coeffs)
    return BurnsideElement(gg, a.ring, dict(zip(cls, a.coeffs.values())))


def diagonal_restrict(a: BurnsideElement) -> BurnsideElement:
    """Restrict along x -> (x, x), from a recorded product G x G to G.

    (x, x) is element x*|G| + x = x*(|G| + 1), so each transitive G x G-set
    restricts to its rows there, read as a G-set over G.
    """
    g = _diagonal_of(a.group)
    rows = range(0, g.order * g.order, g.order + 1)
    return _extend(a, g, lambda x: GSet._built(g, [x.action[r] for r in rows]))
