"""Coefficient rings Z, Q and Z/m, and exact linear algebra over Z and Z/m.

Ring elements are plain Python values: arbitrary-precision ``int`` for Z,
``fractions.Fraction`` for Q, and a reduced residue ``int`` in [0, m) for
Z/m.  The ring objects below normalise, combine and render them, and
refuse a value that is not integral over Z or Z/m, or not an int or a
Fraction over Q, rather than truncate or approximate it.  No floating
point is used anywhere.

``solve_linear`` solves over Z and Z/m only.  A verdict of this package
fails only when |G| is not a unit in the ring, which never happens over
Q, so every unsolvability certificate it gives is over Z or Z/m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd

from .errors import (
    DimensionMismatchError,
    NotInvertibleError,
    ParseError,
    RingMismatchError,
)


def _integer(n, ring):
    """n as an int: an int, or a Fraction with denominator 1; any other
    value raises RingMismatchError rather than being truncated."""
    if isinstance(n, (int, Fraction)) and n.denominator == 1:
        return int(n)
    raise RingMismatchError(f"{n!r} is not an integer over {ring.spec}")


@dataclass(frozen=True)
class IntegerRing:
    spec: str = field(default="Z", init=False)

    def from_int(self, n):
        return n if type(n) is int else _integer(n, self)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if not self.is_unit(a):
            raise NotInvertibleError(f"{a} is not a unit in Z")
        return a

    def to_str(self, a):
        return str(a)


@dataclass(frozen=True)
class RationalRing:
    spec: str = field(default="Q", init=False)

    def from_int(self, n):
        if isinstance(n, (int, Fraction)):
            return Fraction(n)
        raise RingMismatchError(f"{n!r} is not an int or a Fraction over Q")

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotInvertibleError("0 is not a unit in Q")
        return 1 / Fraction(a)

    def to_str(self, a):
        return str(Fraction(a))


@dataclass(frozen=True)
class ModularRing:
    m: int

    def __post_init__(self):
        if type(self.m) is not int:
            raise ParseError(f"modulus must be an int, got {self.m!r}")
        if self.m < 2:
            raise ParseError(f"modulus must be >= 2, got {self.m}")

    @property
    def spec(self):
        return f"Z/{self.m}"

    def from_int(self, n):
        return (n if type(n) is int else _integer(n, self)) % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.m

    def is_zero(self, a):
        return a % self.m == 0

    def is_unit(self, a):
        return gcd(a, self.m) == 1

    def inv(self, a):
        if not self.is_unit(a):
            raise NotInvertibleError(f"{a} is not a unit in Z/{self.m}")
        return pow(a, -1, self.m)

    def to_str(self, a):
        return str(a % self.m)


ZZ = IntegerRing()
QQ = RationalRing()


def Zmod(m: int) -> ModularRing:
    return ModularRing(m)


def ring_from_spec(spec: str):
    """Parse a ring spec string: ``Z``, ``Q`` or ``Z/<m>``."""
    s = spec.strip()
    if s == "Z":
        return ZZ
    if s == "Q":
        return QQ
    if s.startswith("Z/"):
        body = s[2:]
        if not (body.isascii() and body.isdigit()):
            raise ParseError(f"bad modulus in ring spec {spec!r}")
        m = int(body)
        if m < 2:
            raise ParseError(f"modulus must be >= 2 in ring spec {spec!r}")
        return ModularRing(m)
    raise ParseError(f"unknown ring spec {spec!r} (expected Z, Q or Z/<m>)")


@dataclass(frozen=True)
class Matrix:
    """Immutable ring-tagged matrix, stored as sparse rows.

    Row i of ``sparse`` is a tuple of (column, value) pairs in column
    order, values in ring form and zeros left out, so two rows are equal
    exactly when their tuples are.
    """

    ring: object
    cols: int
    sparse: tuple

    @classmethod
    def from_sparse(cls, ring, cols, rows):
        """The matrix of {column: value} rows, values normalised into the
        ring; a column that is not an int in 0..cols-1 raises
        DimensionMismatchError, and a value the ring refuses
        RingMismatchError."""
        sparse = []
        for row in rows:
            try:  # at C speed: a float or Fraction column makes the sum one
                if type(sum(row)) is not int:
                    raise TypeError
            except TypeError:
                j = next(j for j in row if not isinstance(j, int))
                raise DimensionMismatchError(f"column {j!r} is not an int") from None
            items = sorted(row.items())
            if items and (items[0][0] < 0 or items[-1][0] >= cols):
                j = items[0][0] if items[0][0] < 0 else items[-1][0]
                raise DimensionMismatchError(f"column {j} outside 0..{cols - 1}")
            sparse.append(tuple((j, y) for j, x in items if (y := ring.from_int(x))))
        return cls(ring, cols, tuple(sparse))

    @classmethod
    def from_rows(cls, ring, rows):
        """The matrix of dense rows, which must all have one length."""
        rows = [dict(enumerate(row)) for row in rows]
        widths = {len(row) for row in rows}
        if len(widths) > 1:
            raise DimensionMismatchError("ragged matrix")
        return cls.from_sparse(ring, max(widths, default=0), rows)

    @property
    def rows(self):
        return len(self.sparse)

    @property
    def entries(self):
        """The dense rows, zeros as ``ring.zero``: a view for tests and
        layout digests, which no solver reads."""
        zero = self.ring.zero
        return tuple(tuple(row.get(j, zero) for j in range(self.cols))
                     for row in map(dict, self.sparse))


# ---------------------------------------------------------------------------
# Sparse exact elimination over Z and Z/m
# ---------------------------------------------------------------------------

class _Elimination:
    """Row and column operations on a sparse block A, by row and column id.

    A comes as one {column: value} dict per row, zeros left out, and the
    target b as one ring value per row; both are changed in place.  Every
    row operation and row swap on A is also applied to b, which therefore
    ends as U*b, where U*A*V = S, without U ever being formed.  Every
    column operation and column swap is also applied to the sparse
    columns of V, which start as the identity.  With ``m`` set, entries
    are reduced into [0, m) after each operation.

    Operations come in batches with one source: ``add_rows(src, targets)``
    adds k * row src to row i for each (i, k) in targets, and
    ``add_cols(src, targets)`` adds k * column src to column j for each
    (j, k).  No op in a batch changes the source or another target, so
    the batch gives what the ops give one by one; a driver computes
    every multiplier before the call, and cuts a batch where it must look
    at an op's result before the next op.

    Ids never change; ``rat``/``cat`` give the id at each position and
    ``rpos``/``cpos`` the position of each id, so a swap costs O(1).
    ``holders[j]`` is the set of rows with a nonzero in column j, so a
    column operation visits only those rows; an op adds a row to it only
    when the row's entry there goes from zero to nonzero, and removes it
    when the entry cancels.  ``least[i]`` caches (|x|, column position)
    of row i's smallest entry.  It is cleared for each row that
    ``add_rows`` adds to, for each row holding the source column of
    ``add_cols``, and for each row holding either column of
    ``swap_cols``, and ``pivot`` fills it again when it reads the row.

    At step t the rows at positions before t are finished: each holds
    only its pivot, and no later row holds a finished column.  ``alive``
    lists in increasing order the positions that may hold a nonzero row;
    it holds every position after t whose row is nonzero, and ``pivot``
    drops the others as it meets them.  A zero row stays zero, since only
    rows holding a column are ever added to, and rows change position
    only by a swap with t, whose other position is the pivot's or that of
    a row holding column t, so the list needs no other upkeep.

    ``_snf_int`` over Z and ``_diagonalize_mod`` over Z/m both drive
    this block, each in its own operation order.
    """

    def __init__(self, rows, ncols, b, m=0):
        self.rows = rows
        self.b = b
        self.m = m
        self.v = [{j: 1} for j in range(ncols)]
        self.rat = list(range(len(rows)))
        self.rpos = list(range(len(rows)))
        self.cat = list(range(ncols))
        self.cpos = list(range(ncols))
        self.holders = [set() for _ in range(ncols)]
        for i, row in enumerate(rows):
            for j in row:
                self.holders[j].add(i)
        self.least = [None] * len(rows)
        self.alive = list(range(len(rows)))

    def pivot(self, t):
        """Positions (row, column) of the smallest |x| in the rows from t on.

        Ties go to the first row, then to the first column, as a row-major
        scan would find them; None when those rows are all zero.  Rows are
        read in position order, and the scan stops at the first row whose
        smallest |x| is 1, which no entry can beat.  Position t is read
        first whether or not ``alive`` still lists it: a step that starts
        over may have swapped a nonzero row into t after the list dropped
        the zero row that was there.
        """
        rows, least, rat, cpos, alive = (
            self.rows, self.least, self.rat, self.cpos, self.alive)
        best = None
        kept = 0  # alive[:kept] are the positions read and kept so far
        # n is the index of q in alive, and -1 for t
        for n, q in enumerate(chain((t,), alive), -1):
            if n >= 0 and q <= t:
                continue
            i = rat[q]
            key = least[i]
            if key is None:
                row = rows[i]
                if not row:
                    continue
                key = least[i] = min(zip(map(abs, row.values()),
                                         map(cpos.__getitem__, row)))
            if n >= 0:
                alive[kept] = q
                kept += 1
            if best is None or key[0] < best[0]:
                best = (key[0], q, key[1])
                if key[0] == 1:
                    break
        del alive[kept:n + 1]
        return None if best is None else best[1:]

    def place_pivot(self, t):
        """Swap the ``pivot`` found from step t to (t, t); False when the
        rows from t on are all zero."""
        pos = self.pivot(t)
        if pos is None:
            return False
        if pos[0] != t:
            self.swap_rows(pos[0], t)
        if pos[1] != t:
            self.swap_cols(pos[1], t)
        return True

    def swap_rows(self, p, q):
        """Swap the rows at positions p and q, with their targets."""
        a, b = self.rat[p], self.rat[q]
        self.rat[p], self.rat[q] = b, a
        self.rpos[a], self.rpos[b] = q, p

    def swap_cols(self, p, q):
        """Swap the columns at positions p and q, with their columns of V."""
        a, b = self.cat[p], self.cat[q]
        self.cat[p], self.cat[q] = b, a
        self.cpos[a], self.cpos[b] = q, p
        for i in self.holders[a] | self.holders[b]:
            self.least[i] = None

    def add_rows(self, src, targets):
        """Row i += k * row src, on A and on b, for each (i, k) in targets.

        No target may be src.  The source row, with the ``holders`` set of
        each of its columns, and the loop for the ring are bound once per
        call; a multiplier that is zero in the ring is skipped.
        """
        m, rows, b, least, holders = self.m, self.rows, self.b, self.least, self.holders
        srow = [(j, x, holders[j]) for j, x in rows[src].items()]
        bs = b[src]
        if m:
            for i, k in targets:
                if not (k := k % m):
                    continue
                drow = rows[i]
                get = drow.get
                for j, x, h in srow:
                    y = get(j)
                    if y is None:
                        if y := k * x % m:
                            drow[j] = y
                            h.add(i)
                    elif y := (y + k * x) % m:
                        drow[j] = y
                    else:
                        del drow[j]
                        h.discard(i)
                if bs:
                    b[i] = (b[i] + k * bs) % m
                least[i] = None
        else:
            for i, k in targets:
                if not k:
                    continue
                drow = rows[i]
                get = drow.get
                for j, x, h in srow:
                    y = get(j)
                    if y is None:
                        drow[j] = k * x
                        h.add(i)
                    elif y := y + k * x:
                        drow[j] = y
                    else:
                        del drow[j]
                        h.discard(i)
                if bs:
                    b[i] = b[i] + k * bs
                least[i] = None

    def add_cols(self, src, targets):
        """Column j += k * column src, on A and on V, for each (j, k) in
        targets.

        No target may be src.  The rows holding column src, with their
        entries there, V's column src and the loop for the ring are bound
        once per call; a multiplier that is zero in the ring is skipped.
        """
        m, rows, least, holders, v = self.m, self.rows, self.least, self.holders, self.v
        scol = [(i, rows[i], rows[i][src]) for i in holders[src]]
        vsrc = list(v[src].items())
        for i, _, _ in scol:
            least[i] = None
        if m:
            for j, k in targets:
                if not (k := k % m):
                    continue
                h, vdst = holders[j], v[j]
                for i, row, x in scol:
                    y = row.get(j)
                    if y is None:
                        if y := k * x % m:
                            row[j] = y
                            h.add(i)
                    elif y := (y + k * x) % m:
                        row[j] = y
                    else:
                        del row[j]
                        h.discard(i)
                for i, x in vsrc:
                    if y := (vdst.get(i, 0) + k * x) % m:
                        vdst[i] = y
                    elif i in vdst:
                        del vdst[i]
        else:
            for j, k in targets:
                if not k:
                    continue
                h, vdst = holders[j], v[j]
                for i, row, x in scol:
                    y = row.get(j)
                    if y is None:
                        row[j] = k * x
                        h.add(i)
                    elif y := y + k * x:
                        row[j] = y
                    else:
                        del row[j]
                        h.discard(i)
                for i, x in vsrc:
                    if y := vdst.get(i, 0) + k * x:
                        vdst[i] = y
                    elif i in vdst:
                        del vdst[i]

    def result(self):
        """The diagonal of S, U*b in row order and the columns of V."""
        rows, rat, cat = self.rows, self.rat, self.cat
        diag = [rows[rat[t]].get(cat[t], 0) for t in range(min(len(rat), len(cat)))]
        return diag, [self.b[i] for i in rat], [self.v[j] for j in cat]


def _snf_int(rows, ncols, b):
    """Smith normal form U*A*V = S over Z by gcd row/column reduction.

    Operation order, which fixes S, U*b and V exactly:
    at step t the pivot is the smallest |x| in the block of rows and
    columns t.., ties going to the first row and then the first column;
    it is swapped to (t, t).  Each row i > t holding column t gets
    row_i -= (a_it // p) * row_t, then each column j > t of row t gets
    col_j -= (a_tj // p) * col_t; while remainders are left the pivot is
    chosen again.  Once row and column t are clear, the first row i > t
    holding an entry not divisible by p is added to row t and the step
    starts over; with |p| = 1 nothing can fail that test, so the scan is
    skipped.  A negative pivot has row t and its target negated.
    Keeping the smallest pivot is what keeps entries from blowing up on
    the larger bilinearity systems.  The clear of the rows and the clear
    of the columns are one batch each, every multiplier read off the
    entries before the batch; the ``bad``-row add is a batch of one.
    """
    e = _Elimination(rows, ncols, b)
    rat, cat = e.rat, e.cat
    t = 0
    while t < min(len(rows), ncols) and e.place_pivot(t):
        pi, pj = rat[t], cat[t]
        prow = rows[pi]
        p = prow[pj]
        e.add_rows(pi, [(i, -(rows[i][pj] // p)) for i in e.holders[pj] if i != pi])
        e.add_cols(pj, [(j, -(prow[j] // p)) for j in prow if j != pj])
        if len(e.holders[pj]) > 1 or len(prow) > 1:
            continue
        if abs(p) != 1:
            bad = next((q for q in e.alive if q > t and any(
                x % p for x in rows[rat[q]].values())), None)
            if bad is not None:
                e.add_rows(rat[bad], [(pi, 1)])
                continue
        if p < 0:
            prow[pj] = -p
            b[pi] = -b[pi]
        t += 1
    return e.result()


def _diagonalize_mod(rows, ncols, b, m):
    """U*A*V = S (mod m) with S diagonal and U, V invertible mod m.

    The same gcd elimination as over Z, with every entry reduced into
    [0, m) after each operation, so entries never grow, and no
    divisibility chain, which the solver does not need.  Operation order:
    the pivot is the smallest residue in the block from step t, ties
    going to the first row and then the first column, swapped to (t, t).
    Then passes repeat until one swaps nothing: rows i > t holding
    column t, in order, get row_i -= (a_it // a_tt) * row_t, and a
    nonzero remainder swaps rows i and t at once; then the columns
    j > t of row t, in order, get col_j -= (a_tj // a_tt) * col_t, and a
    nonzero remainder swaps columns j and t.  A batch runs up to and
    including the first row (column) that leaves a remainder, so the
    swap that follows it, and the next batch, use the new row (column) t.
    """
    e = _Elimination(rows, ncols, b, m)
    rat, cat, rpos, cpos = e.rat, e.cat, e.rpos, e.cpos
    t = 0
    while t < min(len(rows), ncols) and e.place_pivot(t):
        dirty = True
        while dirty:
            dirty = False
            # the sorted positions stay valid: a swap with t only moves a
            # row or column at a position already passed
            pj, batch = cat[t], []
            for i in sorted(rpos[r] for r in e.holders[pj] if rpos[r] > t):
                ri = rat[i]
                q, r = divmod(rows[ri][pj], rows[rat[t]][pj])
                batch.append((ri, -q))
                if r:
                    e.add_rows(rat[t], batch)
                    e.swap_rows(i, t)
                    batch, dirty = [], True
            if batch:
                e.add_rows(rat[t], batch)
            prow, batch = rows[rat[t]], []
            for j in sorted(cpos[c] for c in prow if cpos[c] > t):
                cj = cat[j]
                q, r = divmod(prow[cj], prow[cat[t]])
                batch.append((cj, -q))
                if r:
                    e.add_cols(cat[t], batch)
                    e.swap_cols(j, t)
                    batch, dirty = [], True
            if batch:
                e.add_cols(cat[t], batch)
        t += 1
    return e.result()


# ---------------------------------------------------------------------------
# Linear solving with kernel spanning sets
# ---------------------------------------------------------------------------

@dataclass
class Solution:
    """A particular solution plus a spanning set of the homogeneous kernel.

    The kernel list spans the solution module over Z or Z/m, which need
    not be free.
    """

    particular: list
    kernel: list


@dataclass
class NoSolution:
    """Constructive unsolvability certificate (shape depends on the ring)."""

    certificate: dict


def solve_linear(a: Matrix, b):
    """Solve a*x = b over Z or Z/m; returns Solution or NoSolution.

    The deduplicated rows and their targets go to the sparse elimination,
    which returns U*b without U ever being formed: Smith form over Z,
    diagonalization mod m over Z/m.  A matrix over Q raises
    RingMismatchError: no verdict of this package solves over Q.
    """
    ring = a.ring
    if isinstance(ring, RationalRing):
        raise RingMismatchError("solve_linear solves over Z and Z/m, not Q")
    b = [ring.from_int(x) for x in b]
    if len(b) != a.rows:
        raise DimensionMismatchError(f"rhs length {len(b)} != {a.rows} rows")
    rows, rhs = _dedup_rows(a.sparse, b)
    if isinstance(ring, IntegerRing):
        return _solve_integer(*_snf_int(rows, a.cols, rhs))
    return _solve_modular(*_diagonalize_mod(rows, a.cols, rhs, ring.m), ring.m)


def _dedup_rows(a, b):
    """The sparse rows a, as {column: value} dicts, and their targets,
    without exact duplicate (row, target) pairs and trivial zero rows.

    This never changes the solution set and keeps large systems with
    heavy row repetition (bilinearity constraints, say) tractable.
    """
    seen = set()
    rows = []
    rhs = []
    for row, bb in zip(a, b):
        key = (row, bb)
        if key in seen:
            continue
        if not row and not bb:
            continue
        seen.add(key)
        rows.append(dict(row))
        rhs.append(bb)
    return rows, rhs


def _combine(vcols, y):
    """V*y for the square matrix V given by its sparse columns."""
    x = [0] * len(vcols)
    for col, yj in zip(vcols, y):
        if yj:
            for i, vij in col.items():
                x[i] += vij * yj
    return x


def _solve_integer(diag, c, vcols):
    """Read the solutions off S = U*A*V, with c = U*b and the columns of V."""
    cols = len(vcols)
    y = [0] * cols
    for i, ci in enumerate(c):
        si = diag[i] if i < len(diag) else 0
        if si == 0:
            if ci != 0:
                return NoSolution({
                    "kind": "invariant_factor",
                    "index": i,
                    "factor": 0,
                    "target": ci,
                })
        else:
            if ci % si != 0:
                return NoSolution({
                    "kind": "invariant_factor",
                    "index": i,
                    "factor": si,
                    "target": ci,
                })
            y[i] = ci // si
    x = _combine(vcols, y)
    kernel = []
    for j in range(cols):
        sj = diag[j] if j < len(diag) else 0
        if sj == 0:
            kernel.append([vcols[j].get(i, 0) for i in range(cols)])
    return Solution(x, kernel)


def _solve_modular(diag, c, vcols, m):
    """Solve mod m through a diagonalization computed entirely mod m.

    With U*A*V = S diagonal mod m, A x = b becomes the independent
    congruences s_i y_i = (U b)_i (mod m); each is solvable iff
    gcd(s_i, m) divides the target, and the leftover freedom (multiples
    of m/gcd per coordinate, plus wholly free coordinates) pulled back
    through V spans the full solution set because V is invertible mod m.
    """
    cols = len(vcols)
    y = [0] * cols
    for i, ci in enumerate(c):
        si = diag[i] if i < len(diag) else 0
        g = gcd(si, m)
        if ci % g != 0:
            return NoSolution({
                "kind": "lifted_congruence",
                "modulus": m,
                "index": i,
                "invariant_factor": si,
                "target": ci,
            })
        if i < cols and g != m:
            mg = m // g
            y[i] = (ci // g) * pow((si // g) % mg, -1, mg) % mg
    particular = [x % m for x in _combine(vcols, y)]
    kernel = []
    seen = set()
    for j in range(cols):
        sj = diag[j] if j < len(diag) else 0
        g = gcd(sj, m)
        if g == 1:
            continue  # y_j is determined uniquely mod m
        step = 1 if g == m else m // g
        vec = tuple((vcols[j].get(i, 0) * step) % m for i in range(cols))
        if any(vec) and vec not in seen:
            seen.add(vec)
            kernel.append(list(vec))
    return Solution(particular, kernel)
