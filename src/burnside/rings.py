"""Coefficient rings Z, Q, Z/m and exact linear algebra over them.

Ring elements are plain Python values: arbitrary-precision ``int`` for Z,
``fractions.Fraction`` for Q, and a reduced residue ``int`` in [0, m) for
Z/m.  The ring objects below normalise, combine and render them.  No
floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import DimensionMismatchError, NotInvertibleError, ParseError


@dataclass(frozen=True)
class IntegerRing:
    spec: str = field(default="Z", init=False)

    def from_int(self, n):
        return int(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

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
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

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
        if self.m < 2:
            raise ParseError(f"modulus must be >= 2, got {self.m}")

    @property
    def spec(self):
        return f"Z/{self.m}"

    def from_int(self, n):
        return int(n) % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def neg(self, a):
        return (-a) % self.m

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


def is_unit(a, ring) -> bool:
    """Unit test for a ring element: |a|=1 in Z, a!=0 in Q, gcd(a,m)=1 in Z/m."""
    return ring.is_unit(a)


@dataclass(frozen=True)
class Matrix:
    """Immutable ring-tagged matrix; entries normalised into the ring."""

    ring: object
    entries: tuple

    @classmethod
    def from_rows(cls, ring, rows):
        norm = tuple(tuple(_coerce(ring, x) for x in row) for row in rows)
        widths = {len(row) for row in norm}
        if len(widths) > 1:
            raise DimensionMismatchError("ragged matrix")
        return cls(ring, norm)

    @property
    def rows(self):
        return len(self.entries)

    @property
    def cols(self):
        return len(self.entries[0]) if self.entries else 0


def _coerce(ring, x):
    if isinstance(ring, RationalRing):
        return Fraction(x)
    if isinstance(ring, ModularRing):
        return int(x) % ring.m
    return int(x)


# ---------------------------------------------------------------------------
# Smith normal form over Z (and over Z/m by lifting)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmithForm:
    """U*A*V = S with U, V unimodular and S diagonal (divisibility over Z).

    For a modular input the reduction was computed on the integer lift and
    the lifted decomposition is kept alongside the reduced one.
    """

    ring: object
    u: tuple
    s: tuple
    v: tuple
    lifted: object = None

    def diagonal(self):
        r = len(self.s)
        c = len(self.s[0]) if r else 0
        return [self.s[i][i] for i in range(min(r, c))]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _snf_int(a):
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


def smith_normal_form(a: Matrix) -> SmithForm:
    """Decompose U*A*V = S; ring must be Z or Z/m (Q rejected)."""
    ring = a.ring
    if isinstance(ring, RationalRing):
        raise DimensionMismatchError("Smith normal form is defined over Z or Z/m here")
    lifted_rows = [[int(x) for x in row] for row in a.entries]
    u, s, v = _snf_int(lifted_rows)
    as_t = lambda m: tuple(tuple(row) for row in m)
    if isinstance(ring, IntegerRing):
        return SmithForm(ring, as_t(u), as_t(s), as_t(v))
    m = ring.m
    red = lambda mat: tuple(tuple(x % m for x in row) for row in mat)
    lifted = SmithForm(ZZ, as_t(u), as_t(s), as_t(v))
    return SmithForm(ring, red(u), red(s), red(v), lifted=lifted)


# ---------------------------------------------------------------------------
# Linear solving with kernel spanning sets
# ---------------------------------------------------------------------------

@dataclass
class Solution:
    """A particular solution plus a spanning set of the homogeneous kernel.

    Over Q the kernel list is a basis; over Z and Z/m it is a spanning set
    of the solution module (which need not be free).
    """

    particular: list
    kernel: list
    ring: object


@dataclass
class NoSolution:
    """Constructive unsolvability certificate (shape depends on the ring)."""

    certificate: dict


def solve_linear(a: Matrix, b, ring=None):
    """Solve a*x = b over the matrix ring; returns Solution or NoSolution."""
    ring = ring or a.ring
    if ring != a.ring:
        raise DimensionMismatchError("matrix/ring mismatch")
    rows, cols = a.rows, a.cols
    b = [_coerce(ring, x) for x in b]
    if len(b) != rows:
        raise DimensionMismatchError(f"rhs length {len(b)} != {rows} rows")
    if isinstance(ring, RationalRing):
        return _solve_rational(a.entries, b)
    if isinstance(ring, IntegerRing):
        return _solve_integer([[int(x) for x in r] for r in a.entries], b)
    return _solve_modular([[int(x) for x in r] for r in a.entries], b, ring.m)


def _solve_rational(a, b):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [[Fraction(x) for x in row] + [Fraction(bb)] for row, bb in zip(a, b)]
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
    return Solution(particular, kernel, QQ)


def _mat_vec(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def _dedup_rows(a, b):
    """Drop exact duplicate (row, target) pairs and trivial zero rows.

    This never changes the solution set and keeps large systems with
    heavy row repetition (bilinearity constraints, say) tractable.
    """
    seen = set()
    rows = []
    rhs = []
    for row, bb in zip(a, b):
        key = (tuple(row), bb)
        if key in seen:
            continue
        if not any(row) and not bb:
            continue
        seen.add(key)
        rows.append(list(row))
        rhs.append(bb)
    if not rows and a:
        rows.append(list(a[0]))
        rhs.append(b[0])
    return rows, rhs


def _solve_integer(a, b):
    a, b = _dedup_rows(a, b)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u, s, v = _snf_int(a)
    c = _mat_vec(u, b)
    y = [0] * cols
    for i in range(rows):
        si = s[i][i] if i < min(rows, cols) else 0
        ci = c[i]
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
    x = _mat_vec(v, y)
    kernel = []
    for j in range(cols):
        sj = s[j][j] if j < min(rows, cols) else 0
        if sj == 0:
            kernel.append([v[i][j] for i in range(cols)])
    return Solution(x, kernel, ZZ)


def _diagonalize_mod(a, m):
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


def _solve_modular(a, b, m):
    """Solve mod m through a diagonalization computed entirely mod m.

    With U*A*V = S diagonal mod m, A x = b becomes the independent
    congruences s_i y_i = (U b)_i (mod m); each is solvable iff
    gcd(s_i, m) divides the target, and the leftover freedom (multiples
    of m/gcd per coordinate, plus wholly free coordinates) pulled back
    through V spans the full solution set because V is invertible mod m.
    """
    a = [[x % m for x in row] for row in a]
    b = [x % m for x in b]
    a, b = _dedup_rows(a, b)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    u, s, v = _diagonalize_mod(a, m)
    c = _mat_vec(u, b)
    y = [0] * cols
    for i in range(rows):
        si = s[i][i] if i < min(rows, cols) else 0
        g = gcd(si, m)
        ci = c[i] % m
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
    ring = ModularRing(m)
    particular = [x % m for x in _mat_vec(v, y)]
    kernel = []
    seen = set()
    for j in range(cols):
        sj = s[j][j] if j < min(rows, cols) else 0
        g = gcd(sj, m)
        if g == 1:
            continue  # y_j is determined uniquely mod m
        step = 1 if g == m else m // g
        vec = tuple((v[i][j] * step) % m for i in range(cols))
        if any(vec) and vec not in seen:
            seen.add(vec)
            kernel.append(list(vec))
    return Solution(particular, kernel, ring)
