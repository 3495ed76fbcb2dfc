"""The Burnside algebra of a group over a coefficient ring.

Elements are coefficient vectors over the subgroup-class basis [G/H].
Multiplication uses structure constants obtained once per group by
decomposing explicit products of transitive G-sets, so it is exact over
any coefficient ring, including Z and Z/m where the marks matrix is not
invertible.  This module is the only one that contracts structure
constants: ``multiply`` and ``mult_matrix`` share one helper, and every
other product (tensor actions, Casimir and Leibniz systems, inversion)
is read from them.  Marks, the table of marks, the primitive idempotents
(for invertible group order) and unit testing live here too.

Over Z, Q and Z/m an element is a unit exactly when all its marks are
units (Dress's description of the prime ideals of B(G)), so ``invert``
checks the marks and then solves a*x = [G/G] once over the element's
own ring.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .errors import (
    GroupMismatchError,
    InternalInconsistencyError,
    NotInvertibleError,
    RingMismatchError,
)
from .groups import Group, normalizer, subgroup_lattice
from .gsets import GSet, decompose, fixed_points, product, transitive
from .rings import Matrix, Solution, solve_linear

_LOCK = threading.Lock()
_MARKS_CACHE = {}
_SC_CACHE = {}
_TRANSITIVE_CACHE = {}


def transitive_of_class(g: Group, ci: int) -> GSet:
    """The transitive G-set G/H for the lattice class with index ci (cached).

    The result is re-homed onto the requested group object, since the
    cache identifies groups structurally but callers may rely on factor
    metadata that equal groups need not share.
    """
    with _LOCK:
        cache = _TRANSITIVE_CACHE.setdefault(g, {})
    if ci not in cache:
        lat = subgroup_lattice(g)
        cache[ci] = transitive(g, lat.class_rep(ci))
    got = cache[ci]
    return got if got.group is g else got.rehomed(g)


@dataclass(frozen=True)
class MarksTable:
    """Integer matrix with rows the transitive sets [G/H], columns the
    subgroup classes K, and entry the fixed-point count |(G/H)^K|."""

    group: Group
    labels: tuple
    matrix: tuple

    def entry(self, row_label, col_label):
        i = self.labels.index(row_label)
        j = self.labels.index(col_label)
        return self.matrix[i][j]


def table_of_marks(g: Group) -> MarksTable:
    with _LOCK:
        cached = _MARKS_CACHE.get(g)
    if cached is not None:
        return cached
    lat = subgroup_lattice(g)
    n = lat.class_count
    sets = [transitive_of_class(g, i) for i in range(n)]
    matrix = tuple(
        tuple(fixed_points(sets[i], lat.class_rep(j)) for j in range(n))
        for i in range(n)
    )
    table = MarksTable(g, tuple(lat.labels()), matrix)
    with _LOCK:
        return _MARKS_CACHE.setdefault(g, table)


def structure_constants(g: Group, i: int, j: int) -> dict:
    """Coefficients of [G/H_i] * [G/H_j] on the class basis (cached)."""
    a, b = (i, j) if i <= j else (j, i)
    with _LOCK:
        cache = _SC_CACHE.setdefault(g, {})
    if (a, b) not in cache:
        lat = subgroup_lattice(g)
        prod = product(transitive_of_class(g, a), transitive_of_class(g, b))
        counts = {}
        for label, mult in decompose(prod).multiplicities().items():
            counts[lat.class_index_of_label(label)] = mult
        cache[(a, b)] = counts
    return cache[(a, b)]


class BurnsideElement:
    """An element of the Burnside algebra: class index -> coefficient.

    Zero coefficients are dropped on construction, so equal elements have
    equal coefficient dictionaries.
    """

    __slots__ = ("group", "ring", "coeffs")

    def __init__(self, group: Group, ring, coeffs: dict):
        self.group = group
        self.ring = ring
        clean = {}
        for k in sorted(coeffs):
            v = coeffs[k]
            if not ring.is_zero(v):
                clean[k] = v
        self.coeffs = clean

    @classmethod
    def zero(cls, group, ring):
        return cls(group, ring, {})

    @classmethod
    def basis(cls, group, ring, ci):
        return cls(group, ring, {ci: ring.one})

    @classmethod
    def from_label_coeffs(cls, group, ring, by_label: dict):
        lat = subgroup_lattice(group)
        return cls(group, ring, {
            lat.class_index_of_label(lbl): ring.from_int(v) if isinstance(v, int) else v
            for lbl, v in by_label.items()
        })

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
        terms = []
        for k, v in sorted(self.coeffs.items()):
            terms.append(f"{self.ring.to_str(v)}*[G/{lat.classes[k].label}]")
        return " + ".join(terms)

    def __repr__(self):
        return f"BurnsideElement({self.group.label}; {self.ring.spec}; {self.render()})"


def identity_element(g: Group, ring) -> BurnsideElement:
    """[G/G], the multiplicative identity."""
    lat = subgroup_lattice(g)
    return BurnsideElement.basis(g, ring, lat.class_count - 1)


def _contract(g: Group, ring, terms) -> dict:
    """Sum of c * [G/H_i][G/H_j] over (i, j, c) in terms: class -> coefficient."""
    out = {}
    for i, j, c in terms:
        for l, mult in structure_constants(g, i, j).items():
            out[l] = ring.add(out.get(l, ring.zero),
                              ring.mul(c, ring.from_int(mult)))
    return out


def multiply(a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
    """Bilinear extension of the product of transitive G-sets."""
    a._compat(b)
    ring = a.ring
    terms = ((i, j, ring.mul(ca, cb))
             for i, ca in a.coeffs.items() for j, cb in b.coeffs.items())
    return BurnsideElement(a.group, ring, _contract(a.group, ring, terms))


def mult_matrix(a: BurnsideElement):
    """Matrix of multiplication by a on the class basis: column j holds a*[G/H_j]."""
    g, ring = a.group, a.ring
    n = subgroup_lattice(g).class_count
    cols = [_contract(g, ring, ((i, j, c) for i, c in a.coeffs.items()))
            for j in range(n)]
    return [[cols[j].get(l, ring.zero) for j in range(n)] for l in range(n)]


def mark(a: BurnsideElement, label: str):
    """The mark of a at a subgroup class: the fixed-point count homomorphism."""
    lat = subgroup_lattice(a.group)
    j = lat.class_index_of_label(label)
    tom = table_of_marks(a.group)
    acc = a.ring.zero
    for k, v in a.coeffs.items():
        acc = a.ring.add(acc, a.ring.mul(v, a.ring.from_int(tom.matrix[k][j])))
    return acc


def marks_vector(a: BurnsideElement):
    """All marks of a, in class order."""
    tom = table_of_marks(a.group)
    n = len(tom.labels)
    ring = a.ring
    out = [ring.zero] * n
    for k, v in a.coeffs.items():
        row = tom.matrix[k]
        for j in range(n):
            if row[j]:
                out[j] = ring.add(out[j], ring.mul(v, ring.from_int(row[j])))
    return out


def idempotent(g: Group, label: str, ring) -> BurnsideElement:
    """The primitive idempotent attached to a subgroup class.

    Gluck/Yoshida formula: e_H = |N_G(H)|^-1 * sum over K <= H of
    |K| mu(K, H) [G/K].  Requires |G| to be a unit in the ring; the
    division is done by the ring inverse of |N_G(H)|.
    """
    if not ring.is_unit(ring.from_int(g.order)):
        raise NotInvertibleError(
            f"|G| = {g.order} is not a unit in {ring.spec}")
    lat = subgroup_lattice(g)
    hi_class = lat.class_index_of_label(label)
    rep = lat.class_rep(hi_class)
    rep_idx = lat.subgroup_index(rep.members)
    nrm = normalizer(g, rep).order
    # integer numerators per class, then one ring division by |N_G(H)|
    numerators = {}
    for ki, sub in enumerate(lat.subgroups):
        if lat.leq(ki, rep_idx):
            mu = lat.moebius_by_index(ki, rep_idx)
            ci = lat.class_of[ki]
            numerators[ci] = numerators.get(ci, 0) + sub.order * mu
    inv_n = ring.inv(ring.from_int(nrm))
    coeffs = {ci: ring.mul(ring.from_int(num), inv_n)
              for ci, num in numerators.items() if num != 0}
    return BurnsideElement(g, ring, coeffs)


def idempotent_system(g: Group, ring):
    """All primitive idempotents, in class order."""
    lat = subgroup_lattice(g)
    return [idempotent(g, c.label, ring) for c in lat.classes]


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
    is definitive.  Otherwise the inverse is the solution of one exact
    system a*x = [G/G] over a's own ring, checked by multiplying back.
    """
    g = a.group
    ring = a.ring
    lat = subgroup_lattice(g)
    ms = marks_vector(a)
    for j, m in enumerate(ms):
        if not ring.is_unit(m):
            return NotInvertible(
                "non_unit_mark",
                f"mark at {lat.classes[j].label} is {ring.to_str(m)}")
    one = identity_element(g, ring)
    rhs = [one.coeffs.get(l, ring.zero) for l in range(lat.class_count)]
    res = solve_linear(Matrix.from_rows(ring, mult_matrix(a)), rhs)
    if not isinstance(res, Solution):
        raise InternalInconsistencyError(
            "all marks are units but a*x = [G/G] has no solution")
    cand = BurnsideElement(g, ring, dict(enumerate(res.particular)))
    if multiply(a, cand) != one:
        raise InternalInconsistencyError("solved inverse fails the product check")
    return cand
