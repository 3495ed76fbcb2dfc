"""Finite left actions of a group on an indexed point set.

This module is in the concrete layer above the engine: it imports
``algebra`` and ``groups``, and no engine module imports it.
``transitive_of_class`` gives the G-set of a lattice class, and
``from_gset`` the class of a G-set in the Burnside algebra.

A GSet stores the action as a dense table action[g][p], as given, its
rows made tuples.  Construction verifies that every entry is an int
point index (1.5, 1.0 or "1" is refused with NotAGroupError, never
truncated), that the identity fixes every point and that the action is
compatible with multiplication; the compatibility check runs over a
generating set of the group, which propagates to all elements.  The
public constructor always checks.  The sets built here as actions by
construction (``transitive``, ``product``, ``disjoint_union``,
``induce``, ``restrict`` and ``rehomed``) come through ``GSet._built``,
which skips that check, as do Mackey's diagonal restriction and the
factor permutation in ``bisets``.

Orbits, stabilizers, products, inductions and restrictions are all
explicit set computations, so they stay exact over any coefficient ring
downstream.  Biset composition, the diagonal merge and Mackey's diagonal
restriction need these concrete sets.  No command builds a G-set: the
algebra multiplies through the table of marks, the conjugation class,
diagonal induction and the commutant are read off the subgroup lattice,
and ``algebra.mackey_check`` counts the orbits of H acting on G by
conjugation.
``fixed_points``, ``induce``, ``restrict``, ``product`` and
``conjugation_gset`` are the reference routes the tests check them
against; ``product`` of ``conjugation_gset`` and G/H is Res Ind [G/H]
along the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BurnsideElement
from .errors import GroupMismatchError, NotAGroupError, NotContainedError
from .groups import (
    Group,
    Subgroup,
    acts_compatibly,
    balanced_product,
    is_homomorphism,
    subgroup_lattice,
    subgroups_conjugate,
    trivial_subgroup,
)


class GSet:
    """A finite G-set given by a dense action table."""

    def __init__(self, group: Group, action, *, _trusted=False):
        self.group = group
        self.action = tuple(map(tuple, action))
        if len(self.action) != group.order:
            raise NotAGroupError("action table needs one row per group element")
        self.size = len(self.action[group.identity])
        if not _trusted:
            self._validate()

    @classmethod
    def _built(cls, group, action):
        """A G-set whose table the package made as an action: a coset
        action, a product, a union, an induction, a restriction or a
        relabelling of a checked G-set.  The action check is skipped."""
        return cls(group, action, _trusted=True)

    def _validate(self):
        n = self.size
        for row in self.action:
            if len(row) != n:
                raise NotAGroupError("ragged action table")
            for x in row:
                if not (isinstance(x, int) and 0 <= x < n):
                    raise NotAGroupError("action value out of range")
        ident = self.action[self.group.identity]
        if any(ident[p] != p for p in range(n)):
            raise NotAGroupError("identity must fix every point")
        if not acts_compatibly(self.group.mul_table, self.group.generators,
                               self.action):
            raise NotAGroupError("action is not compatible with mul")

    def points(self):
        return range(self.size)

    def rehomed(self, new_group: Group) -> "GSet":
        """Same action table over a group with an identical multiplication table."""
        if new_group.mul_table != self.group.mul_table or \
                new_group.identity != self.group.identity:
            raise GroupMismatchError("groups have different multiplication tables")
        return GSet._built(new_group, self.action)

    def __repr__(self):
        return f"GSet({self.group.label}, {self.size} points)"


def transitive(g: Group, h: Subgroup) -> GSet:
    """The left coset action of g on g/h; point order follows minimal coset reps."""
    if h.parent != g:
        raise NotContainedError("subgroup belongs to a different group")
    point_of = [-1] * g.order
    reps = []
    for x in g.elements():
        if point_of[x] >= 0:
            continue
        p = len(reps)
        reps.append(x)
        for m in h.members:
            point_of[g.mul_table[x][m]] = p
    action = [[point_of[g.mul_table[a][r]] for r in reps] for a in g.elements()]
    return GSet._built(g, action)


def transitive_of_class(g: Group, ci: int) -> GSet:
    """The transitive G-set G/H for the lattice class with index ci."""
    return transitive(g, subgroup_lattice(g).class_rep(ci))


def regular(g: Group) -> GSet:
    return transitive(g, trivial_subgroup(g))


def empty_gset(g: Group) -> GSet:
    return GSet(g, [[] for _ in g.elements()])


def conjugation_gset(g: Group) -> GSet:
    """g acting on itself by conjugation."""
    return GSet(g, [[g.conj(a, x) for x in g.elements()] for a in g.elements()])


def fixed_points(x: GSet, h: Subgroup) -> int:
    """Number of points fixed by every element of h."""
    if h.parent != x.group:
        raise NotContainedError("subgroup belongs to a different group")
    gens = h.generators_parent()
    rows = [x.action[s] for s in gens]
    return sum(1 for p in x.points() if all(row[p] == p for row in rows))


def product(x: GSet, y: GSet) -> GSet:
    """Cartesian product with diagonal action; point (p, q) is p*|y| + q."""
    if x.group != y.group:
        raise GroupMismatchError("product needs G-sets over the same group")
    ny = y.size
    action = [[b + c for b in map(ny.__mul__, xa) for c in ya]
              for xa, ya in zip(x.action, y.action)]
    return GSet._built(x.group, action)


def disjoint_union(x: GSet, y: GSet) -> GSet:
    if x.group != y.group:
        raise GroupMismatchError("disjoint union needs G-sets over the same group")
    off = x.size
    action = [list(xa) + [off + q for q in ya] for xa, ya in zip(x.action, y.action)]
    return GSet._built(x.group, action)


def orbits(x: GSet):
    """Orbits as sorted point tuples, ordered by their minimal point."""
    gens = x.group.generators or (x.group.identity,)
    seen = [False] * x.size
    out = []
    for p in x.points():
        if seen[p]:
            continue
        orbit = {p}
        queue = [p]
        seen[p] = True
        while queue:
            q = queue.pop()
            for s in gens:
                r = x.action[s][q]
                if not seen[r]:
                    seen[r] = True
                    orbit.add(r)
                    queue.append(r)
        out.append(tuple(sorted(orbit)))
    return out


def stabilizer(x: GSet, p: int) -> Subgroup:
    if not (isinstance(p, int) and 0 <= p < x.size):
        raise NotContainedError(f"point {p!r} outside the G-set")
    return Subgroup(x.group, [g for g in x.group.elements() if x.action[g][p] == p])


@dataclass(frozen=True)
class Orbit:
    points: tuple
    stabilizer: Subgroup
    class_label: str


@dataclass(frozen=True)
class OrbitDecomposition:
    group: Group
    parts: tuple

    def multiplicities(self):
        """Counts per subgroup-class label."""
        out = {}
        for part in self.parts:
            out[part.class_label] = out.get(part.class_label, 0) + 1
        return out


def decompose(x: GSet) -> OrbitDecomposition:
    """Split into orbits with stabilizers, labelled against the lattice."""
    lat = subgroup_lattice(x.group)
    parts = []
    for orbit in orbits(x):
        stab = stabilizer(x, orbit[0])
        label = lat.class_label_of_subgroup(stab)
        parts.append(Orbit(orbit, stab, label))
    return OrbitDecomposition(x.group, tuple(parts))


def from_gset(x: GSet, ring) -> BurnsideElement:
    """The class of x in the Burnside algebra over ring: its orbit counts
    per subgroup class."""
    lat = subgroup_lattice(x.group)
    coeffs = {}
    for label, mult in decompose(x).multiplicities().items():
        coeffs[lat.class_index_of_label(label)] = ring.from_int(mult)
    return BurnsideElement(x.group, ring, coeffs)


def induce(x: GSet, h: Subgroup, k: Group) -> GSet:
    """Induction of an h-set to k along h <= k: the balanced product k x_h x.

    Points are classes of pairs (a, p) with a in k and p a point of x,
    modulo (a*b, p) ~ (a, b.p) for b in h, numbered by their least pair
    a*|x| + p; k acts on the left factor.
    """
    if h.parent != k:
        raise NotContainedError("subgroup belongs to a different group")
    if x.group != h.as_group():
        raise GroupMismatchError("g-set must live over the subgroup itself")
    nx = x.size
    glue = [([row[h.members[bl]] for row in k.mul_table], x.action[bl])
            for bl in h.generators_local()]
    reps, action = balanced_product(
        k.order, nx, glue, [(row, range(nx)) for row in k.mul_table])
    if len(reps) != (k.order // h.order) * nx:
        raise NotAGroupError("induction produced an unexpected point count")
    return GSet._built(k, action)


def induce_along(x: GSet, images, k: Group) -> GSet:
    """Induce to k along an injective homomorphism of x's group into k.

    ``images[b]`` is the image in k of element b of x's group.  This is
    induction from the image subgroup, with the identification of the
    subgroup with x's group made explicit instead of positional.
    """
    b_group = x.group
    images = list(images)
    if len(images) != b_group.order or len(set(images)) != b_group.order:
        raise NotAGroupError("images must list one distinct target per element")
    if not all(isinstance(v, int) and 0 <= v < k.order for v in images):
        raise NotContainedError("image outside the target group")
    if not is_homomorphism(b_group, k, images):
        raise NotAGroupError("images do not define a homomorphism")
    sub = Subgroup(k, images)
    pre = {img: b for b, img in enumerate(images)}
    sg = sub.as_group()
    action = [x.action[pre[m]] for m in sub.members]
    return induce(GSet(sg, action), sub, k)


def restrict(x: GSet, h: Subgroup) -> GSet:
    """Restriction along h <= group of x; the point set is unchanged."""
    if h.parent != x.group:
        raise NotContainedError("subgroup belongs to a different group")
    return GSet._built(h.as_group(), [x.action[m] for m in h.members])


def iso_equal(x: GSet, y: GSet) -> bool:
    """Isomorphism test: match orbits by size and stabilizer conjugacy."""
    if x.group != y.group:
        raise GroupMismatchError("isomorphism test needs the same group")
    if x.size != y.size:
        return False
    g = x.group
    xs = [(len(o), stabilizer(x, o[0])) for o in orbits(x)]
    ys = [(len(o), stabilizer(y, o[0])) for o in orbits(y)]
    if sorted(s for s, _ in xs) != sorted(s for s, _ in ys):
        return False
    remaining = list(ys)
    for size, stab in xs:
        match = None
        for i, (sz, st) in enumerate(remaining):
            if sz == size and subgroups_conjugate(g, stab, st):
                match = i
                break
        if match is None:
            return False
        remaining.pop(match)
    return not remaining
