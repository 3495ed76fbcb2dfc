"""The Burnside algebra of a group over a coefficient ring.

This module is part of the engine (``errors``, ``groups``, ``rings``,
``algebra``, ``separability``, ``cli``), which imports nothing from the
concrete G-set and biset layer (``gsets``, ``bisets``): that layer sits
on top, imports the engine, and serves as the biset calculus and the
tests' oracle.

Elements are coefficient vectors over the subgroup-class basis [G/H].
The marks homomorphism B(G) -> prod_(K) Z, x -> (|x^K|)_K, is injective
and the table of marks is lower triangular (Gluck 1981), so every
product is computed in the ghost ring: lift the coefficients to
integers (residues as they are, rationals over one common denominator),
map them through the sparse rows of the table, multiply pointwise, and
come back by exact back-substitution through the same rows, from the
last class down.  A nonzero remainder there would mean a ghost vector
outside B(G) and is reported as an internal inconsistency.  The sparse
rows, ``SubgroupLattice.marks_rows``, are the table's primary form: each
lists a row's nonzero marks and ends on its diagonal, so the kernel
never builds the dense n x n table; only ``table_of_marks`` (and the
text form of ``tom``) reads that view.  The table itself comes from
the subgroup lattice, which is the only per-group cache, so ``multiply``, ``mult_matrix``, ``structure_constants``,
``mark`` and ``marks_vector`` share one integer kernel, ``ghost`` and
``unghost``, and every other product is read from it: inversion, the
Casimir and Leibniz systems, and the tensor code, which runs ``ghost``
and ``unghost`` on the rows and the columns of a tensor.
``lift`` and ``lower`` are the one way into and out of the integers,
the tensor code's included; a value that is not integral over Z, or
whose denominator is not a unit mod m over Z/m, is refused, never
truncated.  The primitive idempotents (for invertible group order)
live here too.  Gluck's integer numerators are kept per lattice, in
``SubgroupLattice.idempotent_numerators``, so each call only lowers
them into the caller's ring, as every product leaves the integers.  So
does unit testing.

An element made from outside input is checked once: its keys must be
class indices of the group's lattice.  Products, inverses, idempotents,
sums and multiples are built through ``BurnsideElement._built``, since
their keys come from the lattice itself, and make no lattice lookup to
check them again.

Over Z, Q and Z/m an element is a unit exactly when all its marks are
units (Dress's description of the prime ideals of B(G)), so ``invert``
checks the marks and then inverts them in the ghost ring: the inverted
marks, scaled to integers, come back through ``unghost`` and are lowered
into the element's own ring.  No linear system is solved.

The conjugation class ``gamma``, the classes of images along an
injective map (``_image_classes``) and Mackey's identity
(``mackey_check``) live here too.  They read only the lattice and the
element classes, so no G-set or biset is built for them.
"""

from __future__ import annotations

from collections import Counter
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
from .groups import Group, element_classes, subgroup_lattice
from .rings import QQ, ZZ


@dataclass(frozen=True)
class MarksTable:
    """Integer matrix with rows the transitive sets [G/H], columns the
    subgroup classes K, and entry the fixed-point count |(G/H)^K|."""

    group: Group
    labels: tuple
    matrix: tuple


def table_of_marks(g: Group) -> MarksTable:
    """The dense table of marks of g, the lattice's view of its sparse rows."""
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


def _ghost(a, lat=None) -> tuple:
    """The marks of a as integers over one common denominator: (marks, d).

    The coefficients are lifted once and mapped through ``ghost``; lat is
    a's lattice, looked up when not given.
    """
    if lat is None:
        lat = subgroup_lattice(a.group)
    ints, d = lift(a.ring, a.coeffs.values())
    return ghost(lat, zip(a.coeffs, ints)), d


def unghost(lat, v) -> list:
    """The integer combination with marks v, by exact back-substitution.

    Row i of the sparse table, ``lat.marks_rows[i]``, is the ghost of
    [G/H_i] and ends on its diagonal, so from the last class down each
    coefficient is read off that last entry and its row taken away;
    classes with nothing left are skipped.  No row reaches past its
    diagonal, so v may be cut after its last nonzero mark: the
    coefficients past it are zero and are not returned.
    """
    rows = lat.marks_rows
    r, x = list(v), [0] * len(v)
    for i in reversed(range(len(r))):
        if r[i]:
            row = rows[i]
            x[i], rem = divmod(r[i], row[-1][1])
            if rem:
                raise InternalInconsistencyError(
                    "marks vector outside the image of the Burnside ring")
            for j, m in row:
                r[j] -= x[i] * m
    return x


def _times_row(lat, v, i) -> list:
    """The coefficients of x * [G/H_i], for the integer combination x with
    marks v.

    The product's marks are v times row i of the table, which is zero
    past the diagonal, so only the classes 0..i are unghosted and the
    rest padded with zeros.
    """
    w = [0] * (i + 1)
    for j, m in lat.marks_rows[i]:
        w[j] = v[j] * m
    return unghost(lat, w) + [0] * (lat.class_count - 1 - i)


def structure_constants(g: Group, i: int, j: int) -> dict:
    """Coefficients of [G/H_i] * [G/H_j] on the class basis."""
    lat = subgroup_lattice(g)
    x = _times_row(lat, ghost(lat, [(i, 1)]), j)
    return {l: c for l, c in enumerate(x) if c}


class BurnsideElement:
    """An element of the Burnside algebra: class index -> coefficient.

    Int coefficients, and Fractions with denominator 1, are put in ring
    form (reduced mod m over Z/m) and zeros dropped on construction, so
    equal elements have equal coefficient dictionaries.  A value that is
    neither an int nor a Fraction, a float among them, raises
    RingMismatchError there; a non-integral Fraction is kept, for
    ``lift`` to refuse over Z and Z/m.  A class index outside 0..n-1, n
    the number of subgroup classes, or one that is not an int, raises
    NotContainedError.  ``BurnsideElement._built`` skips that check, and
    the lattice lookup it needs, for keys read off the lattice itself.
    """

    __slots__ = ("group", "ring", "coeffs")

    def __init__(self, group: Group, ring, coeffs: dict, *, _trusted=False):
        self.group = group
        self.ring = ring
        if not _trusted:
            _check_class_indices(group, coeffs)
            # equal residues give equal elements; a non-integral Fraction
            # is a value over Q, and lift refuses it over Z and Z/m
            coeffs = {k: v if type(v) is Fraction and v.denominator != 1
                      else ring.from_int(v) for k, v in coeffs.items()}
        self.coeffs = {k: coeffs[k] for k in sorted(coeffs)
                       if not ring.is_zero(coeffs[k])}

    @classmethod
    def _built(cls, group, ring, coeffs):
        """An element whose keys are class indices of group's lattice, as
        the package reads them off it (products, inverses, idempotents, sums
        and multiples of elements): zero coefficients are still dropped."""
        return cls(group, ring, coeffs, _trusted=True)

    @classmethod
    def zero(cls, group, ring):
        return cls._built(group, ring, {})

    @classmethod
    def basis(cls, group, ring, ci):
        return cls(group, ring, {ci: ring.one})

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
        return BurnsideElement._built(self.group, self.ring, out)

    def sub(self, other):
        return self.add(other.scale(self.ring.from_int(-1)))

    def scale(self, r):
        return BurnsideElement._built(
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


def _check_class_indices(group: Group, coeffs):
    """Refuse a key of coeffs that is not a class index of group's lattice."""
    try:  # at C speed: a float or Fraction key makes the sum one
        if type(sum(coeffs)) is not int:
            raise TypeError
    except TypeError:
        k = next(k for k in coeffs if not isinstance(k, int))
        raise NotContainedError(f"subgroup class {k!r} is not an int") from None
    if coeffs and ((lo := min(coeffs)) < 0
                   or (hi := max(coeffs)) >= subgroup_lattice(group).class_count):
        raise NotContainedError(
            f"no subgroup class {lo if lo < 0 else hi} in {group.label}")


def identity_element(g: Group, ring) -> BurnsideElement:
    """[G/G], the multiplicative identity."""
    lat = subgroup_lattice(g)
    return BurnsideElement._built(g, ring, {lat.class_count - 1: ring.one})


def multiply(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    """Bilinear extension of the product of transitive G-sets."""
    a._compat(b)
    lat = subgroup_lattice(a.group)
    (va, da), (vb, db) = _ghost(a, lat), _ghost(b, lat)
    x = unghost(lat, [p * q for p, q in zip(va, vb)])
    return BurnsideElement._built(a.group, a.ring,
                                  dict(enumerate(lower(a.ring, x, da * db))))


def mult_matrix(a: BurnsideElement):
    """Matrix of multiplication by a on the class basis: column j holds a*[G/H_j]."""
    lat = subgroup_lattice(a.group)
    va, d = _ghost(a, lat)
    cols = [_times_row(lat, va, j) for j in range(lat.class_count)]
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
    lattice keeps the nonzero integer numerators of each class, summed
    over the subgroups K its containment index lists below H, and they
    leave the integers through one ``lower`` by |N_G(H)|.
    """
    lat = _unit_order_lattice(g, ring)
    return _idempotent(g, lat, lat.class_index_of_label(label), ring)


def idempotent_system(g: Group, ring):
    """All primitive idempotents, in class order."""
    lat = _unit_order_lattice(g, ring)
    return [_idempotent(g, lat, ci, ring) for ci in range(lat.class_count)]


def _unit_order_lattice(g: Group, ring):
    """The lattice of g, once |G| is checked to be a unit in the ring."""
    if not ring.is_unit(ring.from_int(g.order)):
        raise NotInvertibleError(f"|G| = {g.order} is not a unit in {ring.spec}")
    return subgroup_lattice(g)


def _idempotent(g: Group, lat, ci, ring) -> BurnsideElement:
    """e_H for the class ci of g's lattice lat, with no check on |G|.

    The lattice keeps the integer numerators, so this is one ``lower``
    by |N_G(H)| into the ring.  The element is built over g, not over
    ``lat.group``: the lattice cache is keyed by structural equality, so
    that may be another group object with the same table but a different
    label and factors.
    """
    cis, nums, norm = lat.idempotent_numerators[ci]
    return BurnsideElement._built(g, ring, dict(zip(cis, lower(ring, nums, norm))))


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
    v, d = _ghost(a, lat)
    for j, m in enumerate(lower(ring, v, d)):
        if not ring.is_unit(m):
            return NotInvertible(
                "non_unit_mark",
                f"mark at {lat.classes[j].label} is {ring.to_str(m)}")
    den = g.order * lcm(*v)
    y = unghost(lat, [den * d // m for m in v])
    try:
        cand = BurnsideElement._built(g, ring, dict(enumerate(lower(ring, y, den))))
    except RingMismatchError:
        raise InternalInconsistencyError(
            "the inverse has a denominator that is not a unit") from None
    if multiply(a, cand) != identity_element(g, ring):
        raise InternalInconsistencyError("inverse fails the product check")
    return cand


# -- the conjugation class and Mackey's identity, read off the lattice --------

def _image_classes(g: Group, target: Group, image, cis) -> list:
    """The class in target's lattice of the image of each class ci of g in
    cis, along the injective homomorphism x -> image(x).

    The member tuple of each class representative is mapped into target
    and the image subgroup looked up there.  Inducing [G/H] along the map
    gives [T/image(H)] (Bouc, Biset Functors for Finite Groups, 2010).
    """
    lat, lat_t = subgroup_lattice(g), subgroup_lattice(target)
    return [lat_t.class_of[lat_t.subgroup_index(map(image, lat.class_rep(ci).members))]
            for ci in cis]


def gamma(g: Group, ring=ZZ) -> BurnsideElement:
    """The class of g acting on itself by conjugation.

    The orbit of x is its conjugacy class, with stabilizer C_G(x), so the
    class is the sum of [G/C_G(x)] over the element classes, each found
    in the lattice; no G-set is built.  Its marks are the centralizer
    orders.  The element is built over g, not over ``lat.group``, which
    the structurally keyed lattice cache may make another equal group.
    """
    lat = subgroup_lattice(g)
    counts = Counter(lat.class_index_of_subgroup(cz) for _, _, cz in element_classes(g))
    return BurnsideElement(g, ring, {ci: ring.from_int(c) for ci, c in counts.items()})


def mackey_check(g: Group) -> list:
    """Whether Res_Delta Ind_Delta x == gamma * x, for each basis class
    x = [G/H] of g, in class order.

    Res_Delta Ind_Delta [G/H] is G_conj x G/H, through the G-isomorphism
    (a, b)Delta(H) -> (a*b^-1, bH), and that is G x_H G_conj, through
    [b, y] -> (b*y*b^-1, bH) (Bouc, Biset Functors for Finite Groups,
    2010).  So the left side is counted on the points of G: one
    [G/C_H(y)] per orbit of H acting on G by conjugation, with no G x G
    group and no G-set built.  It never reads gamma or the ghost kernel,
    which give the right side: gamma's marks are read once, and for each
    class they are multiplied by the sparse row of [G/H] in the table of
    marks and brought back to integer coefficients by one ``unghost`` of
    the classes up to H's.
    """
    lat = subgroup_lattice(g)
    # ZZ's values are the ints themselves
    marks = ghost(lat, gamma(g, ZZ).coeffs.items())
    return [_orbit_count(g, lat, ci) == _gamma_times(lat, marks, ci)
            for ci in range(lat.class_count)]


def _orbit_count(g, lat, ci):
    """Res_Delta Ind_Delta [G/H] for H the rep of class ci, as integer
    coefficients: one [G/C_H(y)] per orbit of H on G by conjugation."""
    h, seen, counts = lat.class_rep(ci).members, set(), [0] * lat.class_count
    for y in g.elements():
        if y not in seen:
            orbit = [g.conj(x, y) for x in h]
            seen.update(orbit)
            counts[lat.class_of[lat.subgroup_index(
                x for x, c in zip(h, orbit) if c == y)]] += 1
    return counts


def _gamma_times(lat, marks, ci):
    """gamma * [G/H_ci] as integer coefficients, from gamma's marks."""
    return _times_row(lat, marks, ci)
