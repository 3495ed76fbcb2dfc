"""The Burnside algebra of a group over a coefficient ring.

Elements are coefficient vectors over the subgroup-class basis [G/H].
The marks homomorphism B(G) -> prod_(K) Z, x -> (|x^K|)_K, is injective
and the table of marks is lower triangular (Gluck 1981), so every
product is computed in the ghost ring: lift the coefficients to
integers (residues as they are, rationals over one common denominator),
map them through the sparse rows of the table, multiply pointwise, and
come back by exact back-substitution through the same rows, from the
last class down.  A nonzero remainder there would mean a ghost vector
outside B(G) and is reported as an internal inconsistency.  The table
itself comes from the subgroup lattice, which is the only per-group
cache, so ``multiply``, ``mult_matrix``, ``structure_constants``,
``mark`` and ``marks_vector`` share one integer kernel, ``ghost`` and
``unghost``, and every other product is read from it: inversion, the
Casimir and Leibniz systems, and the tensor code, which runs ``ghost``
and ``unghost`` on the rows and the columns of a tensor.
``lift`` and ``lower`` are the one way into and out of the integers,
the tensor code's included; a value that is not integral over Z, or
whose denominator is not a unit mod m over Z/m, is refused, never
truncated.  The primitive idempotents (for invertible group order)
live here too: each sums Gluck's integer numerators over the subgroups
that the lattice's containment index lists below H and leaves the
integers through ``lower``, as every product does.  So does unit
testing.

Over Z, Q and Z/m an element is a unit exactly when all its marks are
units (Dress's description of the prime ideals of B(G)), so ``invert``
checks the marks and then inverts them in the ghost ring: the inverted
marks, scaled to integers, come back through ``unghost`` and are lowered
into the element's own ring.  No linear system is solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    GroupMismatchError,
    InternalInconsistencyError,
    NotContainedError,
    NotInvertibleError,
    RingMismatchError,
)
from .groups import Group, subgroup_lattice
from .gsets import GSet, decompose, transitive
from .rings import QQ


def transitive_of_class(g: Group, ci: int) -> GSet:
    """The transitive G-set G/H for the lattice class with index ci."""
    return transitive(g, subgroup_lattice(g).class_rep(ci))


@dataclass(frozen=True)
class MarksTable:
    """Integer matrix with rows the transitive sets [G/H], columns the
    subgroup classes K, and entry the fixed-point count |(G/H)^K|."""

    group: Group
    labels: tuple
    matrix: tuple


def table_of_marks(g: Group) -> MarksTable:
    lat = subgroup_lattice(g)
    return MarksTable(g, tuple(lat.labels()), lat.marks)


# -- the integer ghost-ring kernel ---------------------------------------------

def lift(ring, values) -> tuple:
    """Ring values as integers over one common denominator: (ints, d).

    Integers and residues mod m are taken as they are (d = 1) and
    rationals over the least common denominator of all of them.  A value
    that is not integral over Z or Z/m raises RingMismatchError rather
    than being truncated.
    """
    values = list(values)
    if ring == QQ:
        d = lcm(*(c.denominator for c in values))
        return [c.numerator * (d // c.denominator) for c in values], d
    if {*map(type, values)} <= {int}:  # the common case, at C speed
        return values, 1
    if any(c.denominator != 1 for c in values):
        raise RingMismatchError(f"non-integral coefficient over {ring.spec}")
    return [c.numerator for c in values], 1


def lower(ring, values, d) -> list:
    """Integers over the denominator d back in the ring.

    Over Q the fractions are kept.  Over Z/m with d prime to m (d = 1,
    which every product passes, among them) each value is multiplied by
    the one inverse of d mod m.  Otherwise each fraction v/d is reduced
    and its numerator multiplied by the ring inverse of its denominator;
    a denominator that is not a unit (any but 1 over Z, one not prime to
    m over Z/m) raises RingMismatchError rather than being truncated.
    """
    if ring == QQ:
        return [Fraction(v, d) for v in values]
    if gcd(d, m := getattr(ring, "m", 0)) == 1:  # d = +-1 over Z, or prime to m
        inv = pow(d, -1, m) if m else d
        return [ring.from_int(v * inv) for v in values]
    fracs = [Fraction(v, d) for v in values]
    for f in fracs:
        if not ring.is_unit(ring.from_int(f.denominator)):
            raise RingMismatchError(f"denominator of {f} is not a unit in {ring.spec}")
    return [ring.mul(f.numerator, ring.inv(ring.from_int(f.denominator)))
            for f in fracs]


def ghost(lat, pairs) -> list:
    """The marks of the integer combination sum c * [G/H_i] over the
    (i, c) in pairs, read through the sparse rows of the table."""
    v = [0] * lat.class_count
    for i, c in pairs:
        for j, m in lat.marks_rows[i]:
            v[j] += c * m
    return v


def _ghost(a) -> tuple:
    """The marks of a as integers over one common denominator: (marks, d).

    The coefficients are lifted once and mapped through ``ghost``.
    """
    lat = subgroup_lattice(a.group)
    ints, d = lift(a.ring, a.coeffs.values())
    return ghost(lat, zip(a.coeffs, ints)), d


def unghost(lat, v) -> list:
    """The integer combination with marks v, by exact back-substitution.

    Row i of the table is the ghost of [G/H_i] and ends on its diagonal,
    so from the last class down each coefficient is read off the diagonal
    and its row taken away; classes with nothing left are skipped.
    """
    r, x = list(v), [0] * len(v)
    for i in reversed(range(len(r))):
        if r[i]:
            x[i], rem = divmod(r[i], lat.marks[i][i])
            if rem:
                raise InternalInconsistencyError(
                    "marks vector outside the image of the Burnside ring")
            for j, m in lat.marks_rows[i]:
                r[j] -= x[i] * m
    return x


def structure_constants(g: Group, i: int, j: int) -> dict:
    """Coefficients of [G/H_i] * [G/H_j] on the class basis."""
    lat = subgroup_lattice(g)
    x = unghost(lat, [p * q for p, q in zip(lat.marks[i], lat.marks[j])])
    return {l: c for l, c in enumerate(x) if c}


class BurnsideElement:
    """An element of the Burnside algebra: class index -> coefficient.

    Zero coefficients are dropped on construction, so equal elements have
    equal coefficient dictionaries.  A class index outside 0..n-1, n the
    number of subgroup classes, raises NotContainedError.
    """

    __slots__ = ("group", "ring", "coeffs")

    def __init__(self, group: Group, ring, coeffs: dict):
        self.group = group
        self.ring = ring
        keys = sorted(coeffs)
        if keys and (keys[0] < 0 or keys[-1] >= subgroup_lattice(group).class_count):
            k = keys[0] if keys[0] < 0 else keys[-1]
            raise NotContainedError(f"no subgroup class {k} in {group.label}")
        self.coeffs = {k: coeffs[k] for k in keys if not ring.is_zero(coeffs[k])}

    @classmethod
    def zero(cls, group, ring):
        return cls(group, ring, {})

    @classmethod
    def basis(cls, group, ring, ci):
        return cls(group, ring, {ci: ring.one})

    @classmethod
    def from_gset(cls, x: GSet, ring):
        lat = subgroup_lattice(x.group)
        coeffs = {}
        for label, mult in decompose(x).multiplicities().items():
            coeffs[lat.class_index_of_label(label)] = ring.from_int(mult)
        return cls(x.group, ring, coeffs)

    def _compat(self, other):
        if self.group != other.group:
            raise GroupMismatchError("elements over different groups")
        if self.ring != other.ring:
            raise RingMismatchError("elements over different rings")

    def add(self, other):
        self._compat(other)
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = self.ring.add(out.get(k, self.ring.zero), v)
        return BurnsideElement(self.group, self.ring, out)

    def sub(self, other):
        return self.add(other.scale(self.ring.from_int(-1)))

    def scale(self, r):
        return BurnsideElement(
            self.group, self.ring,
            {k: self.ring.mul(r, v) for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return (self.group == other.group and self.ring == other.ring
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.group, self.ring,
                     tuple(sorted((k, str(v)) for k, v in self.coeffs.items()))))

    def is_zero(self):
        return not self.coeffs

    def to_json_dict(self):
        lat = subgroup_lattice(self.group)
        return {
            "group": self.group.label,
            "ring": self.ring.spec,
            "coeffs": {lat.classes[k].label: self.ring.to_str(v)
                       for k, v in sorted(self.coeffs.items())},
        }

    def render(self):
        if not self.coeffs:
            return "0"
        lat = subgroup_lattice(self.group)
        return " + ".join(f"{self.ring.to_str(v)}*[G/{lat.classes[k].label}]"
                          for k, v in sorted(self.coeffs.items()))

    def __repr__(self):
        return f"BurnsideElement({self.group.label}; {self.ring.spec}; {self.render()})"


def identity_element(g: Group, ring) -> BurnsideElement:
    """[G/G], the multiplicative identity."""
    lat = subgroup_lattice(g)
    return BurnsideElement.basis(g, ring, lat.class_count - 1)


def multiply(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    """Bilinear extension of the product of transitive G-sets."""
    a._compat(b)
    (va, da), (vb, db) = _ghost(a), _ghost(b)
    x = unghost(subgroup_lattice(a.group), [p * q for p, q in zip(va, vb)])
    return BurnsideElement(a.group, a.ring,
                           dict(enumerate(lower(a.ring, x, da * db))))


def mult_matrix(a: BurnsideElement):
    """Matrix of multiplication by a on the class basis: column j holds a*[G/H_j]."""
    lat = subgroup_lattice(a.group)
    va, d = _ghost(a)
    cols = [unghost(lat, [p * q for p, q in zip(va, row)]) for row in lat.marks]
    return [lower(a.ring, row, d) for row in zip(*cols)]


def mark(a: BurnsideElement, label: str):
    """The mark of a at a subgroup class: the fixed-point count homomorphism."""
    j = subgroup_lattice(a.group).class_index_of_label(label)
    return marks_vector(a)[j]


def marks_vector(a: BurnsideElement):
    """All marks of a, in class order."""
    return lower(a.ring, *_ghost(a))


def idempotent(g: Group, label: str, ring) -> BurnsideElement:
    """The primitive idempotent attached to a subgroup class.

    Gluck/Yoshida formula: e_H = |N_G(H)|^-1 * sum over K <= H of
    |K| mu(K, H) [G/K].  Requires |G| to be a unit in the ring.  The
    integer numerators are summed per class over the subgroups K that
    the lattice's containment index lists below H, and the nonzero ones
    leave the integers through one ``lower`` by |N_G(H)|.
    """
    lat = _unit_order_lattice(g, ring)
    return _idempotent(g, lat, lat.classes[lat.class_index_of_label(label)], ring)


def idempotent_system(g: Group, ring):
    """All primitive idempotents, in class order."""
    lat = _unit_order_lattice(g, ring)
    return [_idempotent(g, lat, cls, ring) for cls in lat.classes]


def _unit_order_lattice(g: Group, ring):
    """The lattice of g, once |G| is checked to be a unit in the ring."""
    if not ring.is_unit(ring.from_int(g.order)):
        raise NotInvertibleError(f"|G| = {g.order} is not a unit in {ring.spec}")
    return subgroup_lattice(g)


def _idempotent(g: Group, lat, cls, ring) -> BurnsideElement:
    """e_H for the class cls of g's lattice lat, with no check on |G|.

    The element is built over g, not over ``lat.group``: the lattice
    cache is keyed by structural equality, so that may be another group
    object with the same table but a different label and factors.
    """
    h, num = cls.rep_index, [0] * lat.class_count
    for k in lat.below[h]:
        num[lat.class_of[k]] += lat.subgroups[k].order * lat.moebius_by_index(k, h)
    cis = [i for i, v in enumerate(num) if v]
    # |N_G(H)| = |G| / |cl(H)|
    return BurnsideElement(g, ring, dict(zip(cis, lower(
        ring, [num[i] for i in cis], g.order // len(cls.member_indices)))))


@dataclass(frozen=True)
class NotInvertible:
    """Failure outcome of invert(); stage explains which step broke."""

    stage: str
    detail: str

    def to_json_dict(self):
        return {"invertible": False, "stage": self.stage, "detail": self.detail}


def invert(a: BurnsideElement):
    """Invert a, or explain why it is not a unit.

    Over Z, Q and Z/m, a is a unit exactly when every mark of a is a unit
    (Dress, 1969: the prime ideals of B(G) are pulled back from the marks),
    so a non-unit mark is the only failure and its NotInvertible outcome
    is definitive.  Otherwise the inverse has the inverted marks.  With
    (v, d) the ghost of a and D = |G| * lcm |v_K|, the integers D*d/v_K
    are the marks of D times the inverse, and they lie in the image of
    B(G) because |G| * Z^n does (|N_G(H)| e_H is integral).  So unghost
    gives D times the inverse exactly, and ``lower`` divides by D in a's
    ring.  Over Z the marks are +-1 and the quotient is integral.  Over
    Z/m the integer lift of a has marks prime to m, so it is a unit of
    B(G) localised at each prime dividing m and its rational inverse has
    denominators prime to m, even when m and |G| share a factor; any
    other denominator is an internal inconsistency.  The result is
    checked by multiplying back.
    """
    g, ring = a.group, a.ring
    lat = subgroup_lattice(g)
    v, d = _ghost(a)
    for j, m in enumerate(lower(ring, v, d)):
        if not ring.is_unit(m):
            return NotInvertible(
                "non_unit_mark",
                f"mark at {lat.classes[j].label} is {ring.to_str(m)}")
    den = g.order * lcm(*v)
    y = unghost(lat, [den * d // m for m in v])
    try:
        cand = BurnsideElement(g, ring, dict(enumerate(lower(ring, y, den))))
    except RingMismatchError:
        raise InternalInconsistencyError(
            "the inverse has a denominator that is not a unit") from None
    if multiply(a, cand) != identity_element(g, ring):
        raise InternalInconsistencyError("inverse fails the product check")
    return cand
