"""Independent oracles used by the tests.

Everything here recomputes expected values by brute force or by a
different algorithm than the library uses, so the two routes check each
other.
"""

from fractions import Fraction
from itertools import combinations

from burnside.algebra import (
    BurnsideElement,
    _image_classes,
    identity_element,
    mult_matrix,
)
from burnside.errors import GroupMismatchError, RingMismatchError
from burnside.groups import (
    Group,
    _is_prime,
    _is_prime_power,
    _join,
    cubed,
    squared,
    subgroup_lattice,
    subgroups_conjugate,
)
from burnside.gsets import induce_along, orbits, stabilizer, transitive_of_class
from burnside.rings import QQ, ZZ, Matrix, NoSolution, Solution, solve_linear
from burnside.separability import CommutantResult, TensorElement


def assoc_holds_everywhere(g):
    """Full O(n^3) associativity check (the library only checks generators)."""
    t = g.mul_table
    n = g.order
    return all(t[t[a][b]][c] == t[a][t[b][c]]
               for a in range(n) for b in range(n) for c in range(n))


def subgroups_by_powerset(g):
    """All subgroups by filtering the full powerset; only for tiny groups."""
    n = g.order
    assert n <= 10, "powerset oracle is exponential"
    elems = list(range(n))
    out = set()
    for size in range(1, n + 1):
        if n % size != 0:
            continue
        for cand in combinations(elems, size):
            s = set(cand)
            if g.identity not in s:
                continue
            if all(g.mul_table[a][b] in s for a in s for b in s):
                out.add(tuple(sorted(s)))
    return out


def generated_subgroup(g, gens):
    """Sorted members of the subgroup generated by gens, by breadth-first search."""
    members = {g.identity}
    frontier = [g.identity]
    while frontier:
        frontier = {g.mul_table[a][s] for a in frontier for s in gens} - members
        members |= frontier
    return tuple(sorted(members))


def generating_set(g, members):
    """A few of the members that generate the subgroup they form."""
    gens, span = [], {g.identity}
    for x in members:
        if x not in span:
            gens.append(x)
            span = set(generated_subgroup(g, gens))
    return gens


def lattice_by_every_zuppo(g):
    """(subgroup member tuples, classes, class_of) by cyclic extension that
    joins each class representative with every zuppo outside it and
    outside the joins in which it has prime index, with no skip of
    conjugate zuppos.  Each class is (label, rep_index, member_indices)."""
    mul, e = g.mul_table, g.identity
    zuppos = {}  # mask of each zuppo -> its least generator
    for x in g.elements():
        members, mask, _ = _join(mul, [e], 1 << e, (), x)
        if len(members) > 1 and _is_prime_power(len(members)):
            zuppos.setdefault(mask, x)
    conj_by = [[g.conj(s, x) for x in g.elements()] for s in g.generators]
    orbit_of = {1 << e: 0}  # subgroup mask -> number of its class
    reps = [([e], 1 << e, ())]
    for members, mask, gens in reps:
        covered = mask
        for z in zuppos.values():
            if covered >> z & 1:
                continue
            k = _join(mul, members, mask, gens, z)
            if _is_prime(len(k[0]) // len(members)):
                covered |= k[1]
            if k[1] in orbit_of:
                continue
            orbit_of[k[1]] = len(reps)
            orbit = [k[0]]
            for h in orbit:
                for perm in conj_by:
                    c = [perm[x] for x in h]
                    cmask = sum(1 << x for x in c)
                    if cmask not in orbit_of:
                        orbit_of[cmask] = len(reps)
                        orbit.append(c)
            reps.append(k)
    subs = sorted((tuple(x for x in g.elements() if m >> x & 1) for m in orbit_of),
                  key=lambda s: (len(s), s))
    buckets = {}
    for i, s in enumerate(subs):
        buckets.setdefault(orbit_of[sum(1 << x for x in s)], []).append(i)
    classes, class_of, rank = [], [0] * len(subs), {}
    for idxs in sorted(buckets.values()):  # by least member, so by order first
        order = len(subs[idxs[0]])
        rank[order] = rank.get(order, 0) + 1
        for i in idxs:
            class_of[i] = len(classes)
        classes.append((f"{order}#{rank[order]}", idxs[0], tuple(idxs)))
    return subs, classes, class_of


def moebius_by_zeta_inverse(lat):
    """Moebius values via inversion of the zeta matrix of the subgroup poset."""
    subs = lat.subgroups
    n = len(subs)
    zeta = [[Fraction(1) if subs[i].mask & subs[j].mask == subs[i].mask else Fraction(0)
             for j in range(n)] for i in range(n)]
    # invert by Gauss-Jordan; zeta is unitriangular in the (order, members) sort
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i in range(n)]
    m = [row[:] for row in zeta]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        f = m[col][col]
        m[col] = [x / f for x in m[col]]
        inv[col] = [x / f for x in inv[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
                inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
    return inv  # inv[k][h] = moebius(K, H) for K <= H


def marks_by_class_masks(lat):
    """The table of marks by testing every class member against every
    column rep: |N_G(H):H| * #{H' in cl(H) : K <= H'}."""
    reps = [lat.class_rep(j).mask for j in range(lat.class_count)]
    rows = []
    for i, c in enumerate(lat.classes):
        masks = [lat.subgroups[s].mask for s in c.member_indices]
        scale = lat.group.order // (lat.class_rep(i).order * len(masks))
        rows.append(tuple(scale * sum(m & k == k for m in masks)
                          for k in reps))
    return tuple(rows)


def containment_by_mask_scan(lat):
    """below[h] for every subgroup H, by testing every pair of masks."""
    masks = [s.mask for s in lat.subgroups]
    return tuple(tuple(k for k, mk in enumerate(masks) if mk & mh == mk)
                 for mh in masks)


def idempotent_by_full_scan(g, label, ring):
    """e_H by the Gluck/Yoshida formula, testing every subgroup K for
    K <= H with ``lat.leq`` and dividing each integer numerator by the
    ring inverse of |N_G(H)| one coefficient at a time."""
    lat = subgroup_lattice(g)
    cls = lat.classes[lat.class_index_of_label(label)]
    rep_idx = cls.rep_index
    nrm = g.order // len(cls.member_indices)  # |cl(H)| = |G : N_G(H)|
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


def bareiss_det(a):
    """Exact integer determinant by fraction-free elimination."""
    m = [row[:] for row in a]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def enumerate_modular_solutions(a, b, m):
    """All x with A x = b (mod m) by exhausting the residue vectors."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    sols = []
    stack = [()]
    for _ in range(cols):
        stack = [t + (v,) for t in stack for v in range(m)]
    for x in stack:
        if all(sum(aij * xj for aij, xj in zip(row, x)) % m == bb % m
               for row, bb in zip(a, b)):
            sols.append(x)
    return set(sols)


def span_closure_mod(kernel, m, cols):
    """All elements of the subgroup of (Z/m)^cols generated by the kernel."""
    span = {tuple([0] * cols)}
    frontier = [tuple([0] * cols)]
    while frontier:
        base = frontier.pop()
        for k in kernel:
            nxt = tuple((x + y) % m for x, y in zip(base, k))
            if nxt not in span:
                span.add(nxt)
                frontier.append(nxt)
    return span


# ---------------------------------------------------------------------------
# Dense elimination with the full transform: the reference that the sparse
# eliminations in burnside.rings must match operation for operation
# ---------------------------------------------------------------------------

def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def dense_snf_int(a):
    """Smith normal form of an integer matrix by gcd row/column reduction.

    The pivot is re-selected as the smallest-magnitude nonzero entry of
    the remaining block before every clearing pass; this keeps the
    quotients small and is what keeps intermediate entries from blowing
    up on the larger bilinearity systems.
    """
    r = len(a)
    c = len(a[0]) if r else 0
    s = [list(row) for row in a]
    u = _identity(r)
    v = _identity(c)

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, k):
        # row dst += k * row src
        srow = s[src]
        drow = s[dst]
        for j in range(c):
            drow[j] += k * srow[j]
        urow_s = u[src]
        urow_d = u[dst]
        for j in range(r):
            urow_d[j] += k * urow_s[j]

    def add_col(src, dst, k):
        for row in s:
            row[dst] += k * row[src]
        for row in v:
            row[dst] += k * row[src]

    def select_pivot(t):
        pivot = None
        best = None
        for i in range(t, r):
            row = s[i]
            for j in range(t, c):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        return pivot

    t = 0
    while t < min(r, c):
        exhausted = False
        while True:
            pivot = select_pivot(t)
            if pivot is None:
                exhausted = True
                break
            pi, pj = pivot
            if pi != t:
                swap_rows(pi, t)
            if pj != t:
                swap_cols(pj, t)
            p = s[t][t]
            for i in range(t + 1, r):
                if s[i][t] != 0:
                    add_row(t, i, -(s[i][t] // p))
            for j in range(t + 1, c):
                if s[t][j] != 0:
                    add_col(t, j, -(s[t][j] // p))
            if all(s[i][t] == 0 for i in range(t + 1, r)) \
                    and all(s[t][j] == 0 for j in range(t + 1, c)):
                break
        if exhausted:
            break
        # enforce divisibility of the remaining block by the pivot
        fixed = True
        for i in range(t + 1, r):
            row = s[i]
            for j in range(t + 1, c):
                if row[j] % s[t][t] != 0:
                    add_row(i, t, 1)
                    fixed = False
                    break
            if not fixed:
                break
        if not fixed:
            continue
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
        t += 1

    return u, s, v



def dense_diagonalize_mod(a, m):
    """U*A*V = S (mod m) with S diagonal and U, V invertible mod m.

    Same gcd elimination as the integer Smith form, but every entry is
    reduced into [0, m) after each operation, so entries never grow.
    No divisibility chain is enforced; the solver does not need one.
    """
    r = len(a)
    c = len(a[0]) if r else 0
    s = [[x % m for x in row] for row in a]
    u = [[1 % m if i == j else 0 for j in range(r)] for i in range(r)]
    v = [[1 % m if i == j else 0 for j in range(c)] for i in range(c)]

    def add_row(src, dst, k):
        srow, drow = s[src], s[dst]
        for j in range(c):
            drow[j] = (drow[j] + k * srow[j]) % m
        usrc, udst = u[src], u[dst]
        for j in range(r):
            udst[j] = (udst[j] + k * usrc[j]) % m

    def add_col(src, dst, k):
        for row in s:
            row[dst] = (row[dst] + k * row[src]) % m
        for row in v:
            row[dst] = (row[dst] + k * row[src]) % m

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(r, c):
        pivot = None
        best = None
        for i in range(t, r):
            for j in range(t, c):
                x = s[i][j]
                if x != 0 and (best is None or x < best):
                    best = x
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            swap_rows(pi, t)
        if pj != t:
            swap_cols(pj, t)
        while True:
            dirty = False
            for i in range(t + 1, r):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    add_row(t, i, -q)
                    if s[i][t] != 0:
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, c):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    add_col(t, j, -q)
                    if s[t][j] != 0:
                        swap_cols(j, t)
                        dirty = True
            if not dirty and all(s[i][t] == 0 for i in range(t + 1, r)) \
                    and all(s[t][j] == 0 for j in range(t + 1, c)):
                break
        t += 1
    return u, s, v


# ---------------------------------------------------------------------------
# Dense Gauss-Jordan over Q: the solve over Q that burnside.rings.solve_linear
# refuses, for the tests that check a rational answer against a direct solve.
# ---------------------------------------------------------------------------

def dense_solve_rational(a: Matrix, b):
    """Dense Gauss-Jordan over Q on [a | b], scaling each pivot row to 1.

    The solve over Q that ``solve_linear`` refuses, as an oracle: b holds
    the targets of a's rows.  The particular solution (zero on the free
    columns) and the kernel, one vector per free column, are read off
    the reduced echelon form, which is unique.  A row left as
    0 = residual != 0 gives a ``rank_mismatch`` certificate at its
    position after the row swaps.
    """
    rows, cols = a.rows, a.cols
    m = [[Fraction(x) for x in row] + [Fraction(bb)]
         for row, bb in zip(a.entries, b)]
    pivots = []
    rank = 0
    for j in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][j] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][j]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][j] != 0:
                f = m[i][j]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        pivots.append(j)
        rank += 1
        if rank == rows:
            break
    for i in range(rank, rows):
        if m[i][cols] != 0:
            return NoSolution({
                "kind": "rank_mismatch",
                "row": i,
                "residual": str(m[i][cols]),
            })
    particular = [Fraction(0)] * cols
    for i, j in enumerate(pivots):
        particular[j] = m[i][cols]
    free = [j for j in range(cols) if j not in pivots]
    kernel = []
    for j in free:
        vec = [Fraction(0)] * cols
        vec[j] = Fraction(1)
        for i, pj in enumerate(pivots):
            vec[pj] = -m[i][j]
        kernel.append(vec)
    return Solution(particular, kernel)


# ---------------------------------------------------------------------------
# Ring-generic tensor code: the reference that the integer tensor actions,
# product map and Casimir check in burnside.separability must match.  Every
# coefficient is combined with the ring's own add and mul (Fractions over Q).
# ---------------------------------------------------------------------------

def _fraction_basis_mult_matrices(g: Group):
    """Integer multiplication matrices of the basis classes.

    ls[a][l][j] is the coefficient of [G/H_l] in [G/H_a][G/H_j].
    """
    n = subgroup_lattice(g).class_count
    return [mult_matrix(BurnsideElement.basis(g, ZZ, a)) for a in range(n)]


def fraction_tensor_act_left(x: BurnsideElement, u: TensorElement) -> TensorElement:
    """Multiply the left tensor factor by x."""
    if x.group != u.group:
        raise GroupMismatchError("tensor action over a different group")
    if x.ring != u.ring:
        raise RingMismatchError("tensor action over a different ring")
    ring = u.ring
    lm = mult_matrix(x)
    n = len(u.matrix)
    out = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            c = lm[i][k]
            if ring.is_zero(c):
                continue
            row = u.matrix[k]
            for j in range(n):
                out[i][j] = ring.add(out[i][j], ring.mul(c, row[j]))
    return TensorElement(u.group, ring, out)


def fraction_tensor_act_right(u: TensorElement, x: BurnsideElement) -> TensorElement:
    """Multiply the right tensor factor by x."""
    if x.group != u.group:
        raise GroupMismatchError("tensor action over a different group")
    if x.ring != u.ring:
        raise RingMismatchError("tensor action over a different ring")
    ring = u.ring
    lm = mult_matrix(x)
    n = len(u.matrix)
    out = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        urow = u.matrix[i]
        for k in range(n):
            c = urow[k]
            if ring.is_zero(c):
                continue
            for j in range(n):
                out[i][j] = ring.add(out[i][j], ring.mul(c, lm[j][k]))
    return TensorElement(u.group, ring, out)


def fraction_tensor_mu(u: TensorElement) -> BurnsideElement:
    """The product map: sum of u[H][K] * [G/H]*[G/K]."""
    g, ring = u.group, u.ring
    ls = _fraction_basis_mult_matrices(g)
    n = len(u.matrix)
    out = [ring.zero] * n
    for i, urow in enumerate(u.matrix):
        for l, lrow in enumerate(ls[i]):
            for j, mult in enumerate(lrow):
                if mult:
                    out[l] = ring.add(out[l],
                                      ring.mul(urow[j], ring.from_int(mult)))
    return BurnsideElement(g, ring, dict(enumerate(out)))


def fraction_verify_casimir(u: TensorElement) -> bool:
    """Centrality on every basis element plus mu(u) = [G/G]."""
    g, ring = u.group, u.ring
    n = subgroup_lattice(g).class_count
    for i in range(n):
        x = BurnsideElement.basis(g, ring, i)
        if fraction_tensor_act_left(x, u) != fraction_tensor_act_right(u, x):
            return False
    return fraction_tensor_mu(u) == identity_element(g, ring)


# ---------------------------------------------------------------------------
# Commutant by explicit induction: the reference for the stabilizer
# clustering in burnside.separability.  Each basis class of G x G is
# induced into a concrete G^3-set along both embeddings, and the
# stabilizers of a point are clustered by conjugacy inside the group G^3.
# ---------------------------------------------------------------------------

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


def induced_stabilizer_clusters(g: Group):
    """Conjugacy class in G^3 of each induced stabilizer, in first-seen order.

    Entries 2*ci and 2*ci + 1 are the inductions of basis class ci of
    G x G along (a, b) -> (a, a, b) and (c, d) -> (d, c, d).
    """
    gg = squared(g)
    ggg = cubed(g)
    stabs = []
    for ci in range(subgroup_lattice(gg).class_count):
        x = transitive_of_class(gg, ci)
        for psi in (_embed_delta_g(g), _embed_d13(g)):
            ind = induce_along(x, psi, ggg)
            orbs = orbits(ind)
            assert len(orbs) == 1, "induction of a transitive set is transitive"
            stabs.append(stabilizer(ind, orbs[0][0]))
    reps = []
    cls_of = []
    for s in stabs:
        found = next((ri for ri, r in enumerate(reps)
                      if subgroups_conjugate(ggg, s, r)), None)
        if found is None:
            reps.append(s)
            found = len(reps) - 1
        cls_of.append(found)
    return cls_of


def solved_commutant(g: Group, gg: Group, ring, cls_of):
    """The commutant by solving the constraint system the clusters give.

    One row per stabilizer cluster holds each class ci of gg = G x G whose
    two inductions fall in different clusters, as +1 in the row of the
    first and -1 in the row of the second; the kernel over the ring
    (by ``dense_solve_rational`` over Q) is the commutant.  It matches
    the diagonal span when every solution is supported on diagonal
    classes and every diagonal class is a loop.
    """
    n = subgroup_lattice(gg).class_count
    n_clusters = max(cls_of) + 1
    rows = [{} for _ in range(n_clusters)]
    for ci in range(n):
        if cls_of[2 * ci] != cls_of[2 * ci + 1]:
            rows[cls_of[2 * ci]][ci] = 1
            rows[cls_of[2 * ci + 1]][ci] = -1
    solve = dense_solve_rational if ring == QQ else solve_linear
    res = solve(Matrix.from_sparse(ring, n, rows), [ring.zero] * n_clusters)
    assert isinstance(res, Solution), "a homogeneous system is solvable"
    solutions = [BurnsideElement(gg, ring, dict(enumerate(vec)))
                 for vec in res.kernel]
    diag_classes = _image_classes(g, gg, lambda x: x * g.order + x,
                                  range(subgroup_lattice(g).class_count))
    supported = all(set(sol.coeffs) <= set(diag_classes) for sol in solutions)
    each_diag_solves = all(cls_of[2 * dc] == cls_of[2 * dc + 1]
                           for dc in diag_classes)
    return CommutantResult(solutions, supported and each_diag_solves,
                           diag_classes, len(res.kernel) if ring == QQ else None)
