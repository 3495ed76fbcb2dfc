"""Separability verdicts, commutant computation and derivation spaces.

Three decision procedures, each with a constructive certificate:

* ``ring_separability``: the Burnside algebra over R is separable exactly
  when |G| is a unit in R.  A positive verdict carries the Casimir
  element of the primitive idempotents; a negative verdict carries an
  unsolvability certificate for the full Casimir linear system.
* ``functor_separability``: the shifted Burnside functor attached to G is
  separable exactly when |G| is a unit; the witness is an inverse of the
  conjugation class, and the inverse built from the idempotents must
  agree with the one ``invert`` reads off the inverted marks.
* ``derivation_space``: the module of derivations of the Burnside algebra
  (equal to first Hochschild cohomology, since inner derivations vanish
  for a commutative algebra acting on itself).  Over Z, Q and Z/m with m
  prime to |G| it is 0, decided by the checked Casimir element of the
  positive ``ring_separability`` verdict; over Z/m sharing a prime with
  |G| it is solved as the kernel of the Leibniz constraints.

Every product here is read from ``algebra``: ``multiply``, and
``mult_matrix`` of an element or of each basis class.  The tensor code
(both tensor actions, the product map mu, the Casimir element and its
check) works on one two-sided ghost kernel.  The ghost square of u is
M^T U M, with U the integer lift of u over its common denominator d
(residues and integers as they are) and M the table of marks: u under
the marks map phi (x) phi.  It is mapped back exactly by ``unghost`` on
the rows and then on the columns, and lowered into the ring once.  In
these coordinates the left and right actions of x scale the rows or the
columns by the marks of x, and mu(u) has the diagonal as its marks.
The primitive idempotents e_H are dual to the marks, so the Casimir
element, the sum of the e_H (x) e_H, has ghost square I, and
``verify_casimir`` checks that the ghost square of u is d * I in u's
ring.  That check is sound and complete over Z, Q and Z/m: if it holds,
det M is a unit, phi (x) phi is an isomorphism, and u maps to the only
Casimir element of R^n (DeMeyer and Ingraham, Separable Algebras over
Commutative Rings, 1971).

The commutant computation pins down which elements over G x G commute
with the identity biset under the two one-sided diagonal products; the
solutions are exactly the span of the diagonal classes [GG/Delta(L)].
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    BurnsideElement,
    NotInvertible,
    _ghost,
    _unit_order_lattice,
    ghost,
    identity_element,
    idempotent_system,
    invert,
    lift,
    lower,
    mult_matrix,
    multiply,
    unghost,
)
from .bisets import gamma
from .errors import (
    GroupMismatchError,
    InternalInconsistencyError,
    RingMismatchError,
)
from .groups import (
    Group,
    centralizer_of_subgroup,
    element_classes,
    squared,
    subgroup_lattice,
)
from .rings import QQ, ZZ, Matrix, Solution, solve_linear


# ---------------------------------------------------------------------------
# Tensor square of the Burnside algebra
# ---------------------------------------------------------------------------

class TensorElement:
    """An element of RB(G) (x) RB(G): a class x class coefficient matrix."""

    __slots__ = ("group", "ring", "matrix")

    def __init__(self, group: Group, ring, matrix):
        self.group = group
        self.ring = ring
        n = subgroup_lattice(group).class_count
        rows = tuple(tuple(row) for row in matrix)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise GroupMismatchError("tensor matrix must be classes x classes")
        self.matrix = rows

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.group == other.group and self.ring == other.ring
                and self.matrix == other.matrix)

    def to_json_dict(self):
        lat = subgroup_lattice(self.group)
        return {
            "group": self.group.label,
            "ring": self.ring.spec,
            "labels": lat.labels(),
            "matrix": [[self.ring.to_str(x) for x in row] for row in self.matrix],
        }

    def __repr__(self):
        return f"TensorElement({self.group.label}; {self.ring.spec})"


def _basis_mult_matrices(g: Group):
    """Integer multiplication matrices of the basis classes, as sparse rows.

    ls[a][l] is {j: c} over the nonzero coefficients c of [G/H_l] in
    [G/H_a][G/H_j].
    """
    n = subgroup_lattice(g).class_count
    return [[{j: c for j, c in enumerate(row) if c}
             for row in mult_matrix(BurnsideElement.basis(g, ZZ, a))]
            for a in range(n)]


def _compat(x: BurnsideElement, u: TensorElement):
    if x.group != u.group:
        raise GroupMismatchError("tensor action over a different group")
    if x.ring != u.ring:
        raise RingMismatchError("tensor action over a different ring")


def _two_sided(f, rows) -> list:
    """f applied to each row, then to each column of the result."""
    return list(zip(*map(f, zip(*map(f, rows)))))


def _ghost_square(u: TensorElement) -> tuple:
    """u under the marks map phi (x) phi: (M^T U M, d).

    U is u lifted to integers over its common denominator d, and M is
    the table of marks, so entry (K, K') is the sum of U[H][H'] times the
    marks of [G/H] at K and of [G/H'] at K'.
    """
    lat = subgroup_lattice(u.group)
    n = lat.class_count
    ints, d = lift(u.ring, (c for row in u.matrix for c in row))
    return _two_sided(lambda row: ghost(lat, enumerate(row)),
                      [ints[i * n:(i + 1) * n] for i in range(n)]), d


def _from_ghost_square(g: Group, ring, w, d) -> TensorElement:
    """The tensor whose ghost square is w over the denominator d.

    ``unghost`` runs on the rows of w and then on the columns, exactly,
    and the integers are lowered into the ring by d.
    """
    lat = subgroup_lattice(g)
    return TensorElement(g, ring, [lower(ring, row, d) for row in
                                   _two_sided(lambda v: unghost(lat, v), w)])


def tensor_act_left(x: BurnsideElement, u: TensorElement) -> TensorElement:
    """Multiply the left tensor factor by x: the matrix L_x * u.

    In ghost coordinates this scales row K of the ghost square by the
    mark of x at K.
    """
    _compat(x, u)
    (v, dx), (w, du) = _ghost(x), _ghost_square(u)
    return _from_ghost_square(u.group, u.ring,
                              [[m * c for c in row] for m, row in zip(v, w)], dx * du)


def tensor_act_right(u: TensorElement, x: BurnsideElement) -> TensorElement:
    """Multiply the right tensor factor by x: the matrix u * L_x^T.

    In ghost coordinates this scales column K of the ghost square by the
    mark of x at K.
    """
    _compat(x, u)
    (v, dx), (w, du) = _ghost(x), _ghost_square(u)
    return _from_ghost_square(u.group, u.ring,
                              [[c * m for c, m in zip(row, v)] for row in w], dx * du)


def tensor_mu(u: TensorElement) -> BurnsideElement:
    """The product map: sum of u[H][K] * [G/H]*[G/K], through the ghost ring.

    The mark of [G/H]*[G/K] at K' is the product of their marks there, so
    the marks of mu(u) are the diagonal of the ghost square.
    """
    w, d = _ghost_square(u)
    lat = subgroup_lattice(u.group)
    x = unghost(lat, [w[k][k] for k in range(lat.class_count)])
    return BurnsideElement(u.group, u.ring, dict(enumerate(lower(u.ring, x, d))))


def casimir_from_idempotents(g: Group, ring) -> TensorElement:
    """The separability element: sum over classes of e_H (x) e_H.

    The e_H are dual to the marks, so its ghost square is the identity.
    |G| e_H is integral, as |N_G(H)| e_H is, so |G|^2 * I maps back
    exactly and is lowered by |G|^2.
    """
    n, d = _unit_order_lattice(g, ring).class_count, g.order ** 2
    return _from_ghost_square(g, ring, [[d * (i == j) for j in range(n)]
                                        for i in range(n)], d)


def verify_casimir(u: TensorElement) -> bool:
    """Whether u is central with mu(u) = [G/G]: its ghost square is d * I.

    d is u's common denominator (1 over Z and Z/m), and the integers are
    compared in u's ring.  If the check holds, det M is a unit, so phi (x)
    phi is an isomorphism and u maps to the only Casimir element of R^n,
    the sum of the delta_K (x) delta_K.  Conversely, a Casimir element
    maps to that one, whose ghost square is I.
    """
    w, d = _ghost_square(u)
    return all(u.ring.is_zero(u.ring.from_int(c - d * (i == j)))
               for i, row in enumerate(w) for j, c in enumerate(row))


# ---------------------------------------------------------------------------
# Ring separability with certificates
# ---------------------------------------------------------------------------

@dataclass
class SeparabilityVerdict:
    separable: bool
    witness: TensorElement | None = None
    obstruction: dict | None = None

    def to_json_dict(self, claim, group, ring):
        out = {
            "claim": claim,
            "group": group.label,
            "ring": ring.spec,
            "separable": self.separable,
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        if self.obstruction is not None:
            out["obstruction"] = self.obstruction
        return out


def casimir_linear_system(g: Group, ring):
    """Constraint matrix for Casimir elements: centrality rows, then mu rows.

    Unknowns are the n*n tensor coefficients u[k][j], vectorised row-major.
    """
    lat = subgroup_lattice(g)
    n = lat.class_count
    ls = _basis_mult_matrices(g)
    rows = []
    rhs = []
    for la in ls:
        for i in range(n):
            for j in range(n):
                row = {k * n + j: x for k, x in la[i].items()}
                for k, x in la[j].items():
                    row[i * n + k] = row.get(i * n + k, 0) - x
                rows.append(row)
                rhs.append(0)
    top = n - 1  # class of G itself
    for b in range(n):
        rows.append({h * n + k: x for h in range(n) for k, x in ls[h][b].items()})
        rhs.append(1 if b == top else 0)
    return Matrix.from_sparse(ring, n * n, rows), [ring.from_int(x) for x in rhs]


def ring_separability(g: Group, ring) -> SeparabilityVerdict:
    """Separability of the Burnside algebra over the coefficient ring.

    Holds exactly when |G| is a unit; negative verdicts are backed by an
    unsolvability certificate for the full Casimir constraint system.
    """
    if ring.is_unit(ring.from_int(g.order)):
        witness = casimir_from_idempotents(g, ring)
        if not verify_casimir(witness):
            raise InternalInconsistencyError(
                "idempotent Casimir element failed verification")
        return SeparabilityVerdict(True, witness=witness)
    matrix, rhs = casimir_linear_system(g, ring)
    res = solve_linear(matrix, rhs)
    if isinstance(res, Solution):
        raise InternalInconsistencyError(
            "Casimir system is solvable although |G| is not a unit")
    obstruction = {
        "kind": "linear_obstruction",
        "non_unit_order": {"order": g.order, "ring": ring.spec},
        "certificate": res.certificate,
    }
    return SeparabilityVerdict(False, obstruction=obstruction)


# ---------------------------------------------------------------------------
# Functor separability via the conjugation class
# ---------------------------------------------------------------------------

@dataclass
class FunctorVerdict:
    separable: bool
    gamma: BurnsideElement
    gamma_inverse: BurnsideElement | None = None
    obstruction: dict | None = None

    def to_json_dict(self, group, ring):
        out = {
            "claim": "functor-separable",
            "group": group.label,
            "ring": ring.spec,
            "separable": self.separable,
            "gamma": self.gamma.to_json_dict(),
        }
        if self.gamma_inverse is not None:
            out["witness"] = self.gamma_inverse.to_json_dict()
        if self.obstruction is not None:
            out["obstruction"] = self.obstruction
        return out


def functor_separability(g: Group, ring) -> FunctorVerdict:
    """Separability of the Burnside functor shifted by g.

    Decided by invertibility of the conjugation class; when |G| is a
    unit, the explicit inverse sum over |C_G(H)|^-1 e_H must agree with
    the inverse that ``invert`` computes in the ghost ring.  The sum is
    an independent second route: the idempotents come from Moebius
    values, not from back-substitution through the table of marks.
    """
    gam = gamma(g, ring)
    res = invert(gam)
    unit_order = ring.is_unit(ring.from_int(g.order))
    if isinstance(res, NotInvertible):
        if unit_order:
            raise InternalInconsistencyError(
                "|G| is a unit but the conjugation class is not invertible")
        return FunctorVerdict(False, gam, obstruction=res.to_json_dict())
    if not unit_order:
        raise InternalInconsistencyError(
            "conjugation class invertible although |G| is not a unit")
    lat = subgroup_lattice(g)
    idems = idempotent_system(g, ring)
    alpha = BurnsideElement.zero(g, ring)
    for ci in range(lat.class_count):
        c_order = centralizer_of_subgroup(g, lat.class_rep(ci)).order
        alpha = alpha.add(idems[ci].scale(ring.inv(ring.from_int(c_order))))
    if multiply(gam, alpha) != identity_element(g, ring):
        raise InternalInconsistencyError("centralizer inverse fails gamma * alpha = 1")
    if alpha != res:
        raise InternalInconsistencyError(
            "idempotent inverse disagrees with the solved inverse")
    return FunctorVerdict(True, gam, gamma_inverse=alpha)


# ---------------------------------------------------------------------------
# The commutant inside RB(G x G)
# ---------------------------------------------------------------------------

@dataclass
class CommutantResult:
    solutions: list
    matches_diagonal_span: bool
    diagonal_class_indices: list
    dimension: int | None


def _embed_delta_g(g: Group):
    """Images in G^3 of the map (a, b) -> (a, a, b) on G x G."""
    n = g.order
    return [a * n * n + a * n + b for a in g.elements() for b in g.elements()]


def _embed_d13(g: Group):
    """Images in G^3 of the map (c, d) -> (d, c, d) on G x G.

    This is the identification under which the right one-sided diagonal
    product of a GG-set with the identity biset becomes an induction.
    """
    n = g.order
    return [d * n * n + c * n + d for c in g.elements() for d in g.elements()]


def _triples(g: Group, images, members):
    """The image of a subgroup of G x G in G^3 as a frozenset of triples."""
    n = g.order
    out = set()
    for m in members:
        a, bc = divmod(images[m], n * n)
        out.add((a,) + divmod(bc, n))
    return frozenset(out)


def _inner_automorphisms(g: Group):
    """One conjugation permutation of G per inner automorphism.

    Conjugation by x depends on x only modulo the centre, so there are
    |G : Z(G)| of them, and an abelian G has the identity alone.
    """
    return list(dict.fromkeys(tuple(g.conj(x, a) for a in g.elements())
                              for x in g.elements()))


def _componentwise_conjugate(inner, s, t) -> bool:
    """Whether (x, y, z) s (x, y, z)^-1 = t for some x, y, z in G.

    s and t are subgroups of G^3 as sets of triples, and inner lists the
    conjugation permutations of G, one per inner automorphism.  The
    search fixes x, then y, then z, and drops x (or x and y) as soon as
    the projection of the conjugate to coordinate 1 (or 1 and 2) differs
    from that of t.
    """
    if s == t:
        return True
    s1 = {a for a, _, _ in s}
    s12 = {(a, b) for a, b, _ in s}
    t1 = {a for a, _, _ in t}
    t12 = {(a, b) for a, b, _ in t}
    for px in inner:
        if {px[a] for a in s1} != t1:
            continue
        for py in inner:
            if {(px[a], py[b]) for a, b in s12} != t12:
                continue
            for pz in inner:
                if {(px[a], py[b], pz[c]) for a, b, c in s} == t:
                    return True
    return False


def _stabilizer_clusters(g: Group, gg: Group):
    """G^3-conjugacy class of each stabilizer, numbered in first-seen order.

    Entries 2*ci and 2*ci + 1 belong to the two inductions of basis class
    ci of G x G.  Induction along an injective psi takes (G x G)/K to
    G^3/psi(K) (Bouc, Biset Functors for Finite Groups, 2010), so the
    stabilizers are psi(K) up to conjugacy, and conjugacy in G^3 is
    conjugacy in each coordinate.  The images are bucketed by their
    triples of element conjugacy classes, which conjugation keeps and
    which, for an abelian G, are the triples themselves.  gg is G x G.
    """
    lat_gg = subgroup_lattice(gg)
    cid = [0] * g.order  # element -> index of its conjugacy class
    for k, (_, ccl, _) in enumerate(element_classes(g)):
        for a in ccl:
            cid[a] = k
    inner = _inner_automorphisms(g)
    psis = (_embed_delta_g(g), _embed_d13(g))
    buckets = {}  # conjugacy invariant -> [(cluster, subgroup)]
    cls_of = []
    n_clusters = 0
    for ci in range(lat_gg.class_count):
        members = lat_gg.class_rep(ci).members
        for psi in psis:
            s = _triples(g, psi, members)
            key = tuple(sorted((cid[a], cid[b], cid[c]) for a, b, c in s))
            bucket = buckets.setdefault(key, [])
            found = next((k for k, r in bucket
                          if _componentwise_conjugate(inner, s, r)), None)
            if found is None:
                found = n_clusters
                n_clusters += 1
                bucket.append((found, s))
            cls_of.append(found)
    return cls_of


def commutant_basis(g: Group, ring) -> CommutantResult:
    """Solve the two-sided diagonal condition over the basis of RB(G x G).

    The single witness is the identity biset of G; for m over G x G the
    condition reads Ind along {(a,a,b)} equals Ind along {(a,b,a)} inside
    G^3.  Both inductions of a basis class (G x G)/K are transitive, with
    stabilizers conjugate to the images psi1(K) and psi2(K), so the
    constraint matrix only needs the conjugacy classes of these images,
    which are found coordinate by coordinate with no G^3 or G-set built.
    The solution set is compared against the span of the diagonal
    classes [GG/Delta(L)].  Only |G x G| <= MAX_GROUP_ORDER bounds the
    base group; ``squared`` raises ResourceBoundError beyond it.
    """
    gg = squared(g)
    return _commutant_from_clusters(g, gg, ring, _stabilizer_clusters(g, gg))


def _commutant_from_clusters(g: Group, gg: Group, ring, cls_of) -> CommutantResult:
    """The commutant from the stabilizer class of each induction.

    cls_of lists, for each basis class ci of gg = G x G, the classes of
    its two induced stabilizers at 2*ci and 2*ci + 1, numbered from 0.
    """
    lat_gg = subgroup_lattice(gg)
    n = lat_gg.class_count
    n_clusters = max(cls_of) + 1
    rows = [{} for _ in range(n_clusters)]
    for ci in range(n):
        if cls_of[2 * ci] != cls_of[2 * ci + 1]:
            rows[cls_of[2 * ci]][ci] = 1
            rows[cls_of[2 * ci + 1]][ci] = -1

    res = solve_linear(Matrix.from_sparse(ring, n, rows), [ring.zero] * n_clusters)
    if not isinstance(res, Solution):
        raise InternalInconsistencyError("homogeneous system reported unsolvable")
    solutions = [BurnsideElement(gg, ring, dict(enumerate(vec)))
                 for vec in res.kernel]

    # the diagonal classes Delta(L) for L over the base lattice
    lat_g = subgroup_lattice(g)
    diag_classes = []
    for cj in range(lat_g.class_count):
        rep = lat_g.class_rep(cj)
        members = [x * g.order + x for x in rep.members]
        diag_classes.append(lat_gg.class_of[lat_gg.subgroup_index(members)])
    diag_set = set(diag_classes)

    supported = all(set(sol.coeffs) <= diag_set for sol in solutions)
    each_diag_solves = all(
        cls_of[2 * dc] == cls_of[2 * dc + 1] for dc in diag_classes)
    matches = supported and each_diag_solves

    dimension = len(res.kernel) if ring == QQ else None
    return CommutantResult(solutions, matches, diag_classes, dimension)


# ---------------------------------------------------------------------------
# Derivations / first Hochschild cohomology
# ---------------------------------------------------------------------------

@dataclass
class DerivationSpace:
    """Spanning set of the derivations d: RB(G) -> RB(G).

    Each entry is a class x class matrix: row H holds the coefficients of
    d([G/H]).  Over Z and Q, and over Z/m with m prime to |G|, the list
    is empty; over the other Z/m it spans.
    Inner derivations vanish (commutative algebra, symmetric bimodule),
    so this module is the first Hochschild cohomology itself.
    """

    group: Group
    ring: object
    basis: list

    def is_zero(self):
        return not self.basis

    def matrices_json(self):
        lat = subgroup_lattice(self.group)
        labels = lat.labels()
        out = []
        for m in self.basis:
            out.append({labels[i]: {labels[j]: self.ring.to_str(m[i][j])
                                    for j in range(len(labels))
                                    if not self.ring.is_zero(m[i][j])}
                        for i in range(len(labels))})
        return out


def leibniz_system(g: Group, ring):
    """Homogeneous constraints d(x_i x_j) = d(x_i) x_j + x_i d(x_j).

    Unknowns are the n*n matrix entries d[h][b], vectorised row-major.
    """
    lat = subgroup_lattice(g)
    n = lat.class_count
    ls = _basis_mult_matrices(g)
    rows = []
    for i in range(n):
        for j in range(i, n):
            xij = {l: r[j] for l, r in enumerate(ls[i]) if j in r}
            for b in range(n):
                row = {l * n + b: x for l, x in xij.items()}
                # row b of L_j holds [G/H_b] in x_k x_j, as x_j x_k = x_k x_j
                for k, x in ls[j][b].items():
                    row[i * n + k] = row.get(i * n + k, 0) - x
                for k, x in ls[i][b].items():
                    row[j * n + k] = row.get(j * n + k, 0) - x
                rows.append(row)
    return Matrix.from_sparse(ring, n * n, rows)


def derivation_space(g: Group, ring) -> DerivationSpace:
    """All derivations of the Burnside algebra over the ring.

    When |G| is a unit the algebra is separable, and a separable
    commutative algebra has no derivation but 0 (DeMeyer and Ingraham,
    1971); an integer derivation is a rational one.  So over Z, Q and
    Z/m with m prime to |G| the checked Casimir element of
    ``ring_separability`` (over Q for Z) decides, and the Leibniz system
    is eliminated only mod m sharing a prime with |G|.
    """
    base = QQ if ring == ZZ else ring
    if base.is_unit(base.from_int(g.order)):
        ring_separability(g, base)  # raises unless verify_casimir holds
        return DerivationSpace(g, ring, [])
    n = subgroup_lattice(g).class_count
    matrix = leibniz_system(g, ring)
    res = solve_linear(matrix, [0] * matrix.rows)
    if not isinstance(res, Solution):
        raise InternalInconsistencyError("homogeneous system reported unsolvable")
    # no kernel vector is zero: over Z/m zeros are dropped
    basis = [tuple(tuple(vec[i * n + j] for j in range(n)) for i in range(n))
             for vec in res.kernel]
    return DerivationSpace(g, ring, basis)


def satisfies_leibniz(g: Group, ring, matrix) -> bool:
    """Check d(x_i x_j) = d(x_i) x_j + x_i d(x_j) on all basis pairs."""
    lat = subgroup_lattice(g)
    n = lat.class_count

    def d_of(i):
        return BurnsideElement(g, ring, dict(enumerate(matrix[i])))

    for i in range(n):
        xi = BurnsideElement.basis(g, ring, i)
        for j in range(i, n):
            xj = BurnsideElement.basis(g, ring, j)
            lhs = BurnsideElement.zero(g, ring)
            for l, c in multiply(xi, xj).coeffs.items():
                lhs = lhs.add(d_of(l).scale(c))
            rhs = multiply(d_of(i), xj).add(multiply(xi, d_of(j)))
            if lhs != rhs:
                return False
    return True
