import random
from fractions import Fraction

import pytest

import burnside.rings
from burnside.algebra import BurnsideElement, invert
from burnside.bisets import gamma
from burnside.errors import (
    DimensionMismatchError,
    NotInvertibleError,
    ParseError,
    RingMismatchError,
)
from burnside.groups import build_group
from burnside.rings import (
    QQ,
    ZZ,
    Matrix,
    NoSolution,
    Solution,
    Zmod,
    _dedup_rows,
    _diagonalize_mod,
    _snf_int,
    ring_from_spec,
    solve_linear,
)
from burnside.separability import (
    casimir_linear_system,
    commutant_basis,
    derivation_space,
    leibniz_system,
    ring_separability,
)

from helpers import (
    bareiss_det,
    dense_diagonalize_mod,
    dense_snf_int,
    dense_solve_rational,
    enumerate_modular_solutions,
    mat_mul,
    span_closure_mod,
)


class _Vec(tuple):
    """A row of a carried block, standing in for one target value.

    The elimination only adds, scales, negates, reduces and zero-tests
    its targets, so a row of the block rides through it entrywise.
    """

    def __add__(self, other):
        return _Vec(x + y for x, y in zip(self, other))

    def __rmul__(self, k):
        return _Vec(k * x for x in self)

    def __neg__(self):
        return _Vec(-x for x in self)

    def __mod__(self, m):
        return _Vec(x % m for x in self)

    def __bool__(self):
        return any(self)


def _eliminate(a, m=0, carry=None):
    """Sparse elimination of the dense matrix a: (carried, s, v) as dense lists.

    The carried block defaults to the identity, which comes back as U.
    Its rows go in as the targets, one _Vec each, so one run carries it.
    """
    r = len(a)
    c = len(a[0]) if r else 0
    if carry is None:
        carry = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    rows = [{j: x for j, x in enumerate(row) if x} for row in a]
    b = [_Vec(row) for row in carry]
    diag, ub, vcols = _diagonalize_mod(rows, c, b, m) if m else _snf_int(rows, c, b)
    s = [[diag[i] if i == j else 0 for j in range(c)] for i in range(r)]
    v = [[col.get(i, 0) for col in vcols] for i in range(c)]
    return [list(x) for x in ub], s, v


def _diagonal(s):
    return [s[i][i] for i in range(min(len(s), len(s[0]) if s else 0))]


def test_ring_from_spec():
    assert ring_from_spec("Z") is ZZ
    assert ring_from_spec("Q") is QQ
    assert ring_from_spec("Z/6") == Zmod(6)
    for bad in ("", "Z/", "Z/1", "Z/x", "R", "GF(4)"):
        with pytest.raises(ParseError):
            ring_from_spec(bad)


@pytest.mark.parametrize("m", [2.5, 6.0, "6", True])
def test_zmod_refuses_a_modulus_that_is_not_an_int(m):
    assert Zmod(6).spec == "Z/6"
    with pytest.raises(ParseError, match=f"^modulus must be an int, got {m!r}$"):
        Zmod(m)


def test_is_unit():
    assert not ZZ.is_unit(2)
    assert ZZ.is_unit(-1)
    assert Zmod(3).is_unit(2)
    assert not Zmod(4).is_unit(2)
    assert not QQ.is_unit(QQ.zero)
    assert QQ.is_unit(QQ.from_int(7))


def test_modular_normalisation():
    r = Zmod(5)
    assert r.from_int(-3) == 2
    assert r.add(4, 4) == 3
    assert r.inv(2) == 3
    with pytest.raises(NotInvertibleError):
        Zmod(4).inv(2)
    # an integral Fraction is the integer it equals
    assert r.from_int(Fraction(-6, 2)) == 2 and ZZ.from_int(Fraction(14, 2)) == 7
    assert type(r.from_int(Fraction(-6, 2))) is type(ZZ.from_int(Fraction(7))) is int


def test_non_integral_rhs_is_refused_not_truncated():
    # int(7/2) would solve x = 3
    with pytest.raises(RingMismatchError, match="not an integer over Z$"):
        solve_linear(Matrix.from_rows(ZZ, [[1]]), [Fraction(7, 2)])


def test_non_integral_matrix_entry_is_refused_not_truncated():
    # int() would store [[3/2, 2.9]] as ((0, 1), (1, 2))
    for row in ([Fraction(3, 2), 2.9], [1, 2.9]):
        with pytest.raises(RingMismatchError, match="not an integer over Z$"):
            Matrix.from_rows(ZZ, [row])


def test_non_integral_residue_is_refused_not_truncated():
    # int(2.7) % 5 would be 2
    with pytest.raises(RingMismatchError, match="^2.7 is not an integer over Z/5$"):
        Zmod(5).from_int(2.7)


def test_float_is_refused_over_q():
    # Fraction(2.7) would be 3039929748475085/1125899906842624
    with pytest.raises(RingMismatchError, match="^2.7 is not an int or a Fraction"):
        QQ.from_int(2.7)
    with pytest.raises(RingMismatchError, match="^0.1 is not an int or a Fraction"):
        Matrix.from_rows(QQ, [[0.1]])
    assert QQ.from_int(3) == Fraction(3)
    assert QQ.from_int(Fraction(1, 2)) == Fraction(1, 2)
    assert Matrix.from_rows(QQ, [[Fraction(1, 10), 2]]).sparse == (
        ((0, Fraction(1, 10)), (1, Fraction(2))),)


@pytest.mark.parametrize("ring,a", [
    (ZZ, [[0, 3, -7], [12, 0, 0], [0, 0, 0]]),
    (QQ, [[Fraction(1, 2), 0, -3], [0, Fraction(-4, 6), 0], [0, 0, 0]]),
    (Zmod(6), [[6, 3, -7], [12, 0, 13], [0, -6, 0]]),
])
def test_matrix_is_sparse_rows(ring, a):
    matrix = Matrix.from_rows(ring, a)
    assert (matrix.rows, matrix.cols) == (3, 3)
    assert matrix.entries == tuple(tuple(ring.from_int(x) for x in row) for row in a)
    assert all(type(x) is type(ring.zero) for row in matrix.entries for x in row)
    assert matrix.sparse == tuple(
        tuple((j, ring.from_int(x)) for j, x in enumerate(row) if ring.from_int(x))
        for row in a)
    # equal rows are equal tuples, whatever order their dicts were built in
    rows = Matrix.from_sparse(ring, 3, [{2: 1, 0: 5}, {0: 5, 2: 1}]).sparse
    assert rows[0] == rows[1] == ((0, ring.from_int(5)), (2, ring.from_int(1)))
    with pytest.raises(DimensionMismatchError, match="ragged"):
        Matrix.from_rows(ring, [[1, 2], [3]])
    empty = Matrix.from_rows(ring, [])
    assert (empty.rows, empty.cols) == (0, 0)


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(6)], ids=lambda r: r.spec)
def test_from_sparse_column_must_be_in_range(ring):
    # refused here, before solve_linear would index a column that is not
    # there; a zero entry's column is checked too
    for row, bad in (({5: 1}, 5), ({0: 1, 2: 0}, 2), ({-1: 1, 1: 1}, -1)):
        with pytest.raises(DimensionMismatchError, match=f"^column {bad} outside 0"):
            Matrix.from_sparse(ring, 2, [{0: 1}, row])
    assert Matrix.from_sparse(ring, 2, [{1: 1, 0: 0}]).sparse == (
        ((1, ring.from_int(1)),),)


@pytest.mark.parametrize("bad", [1.5, 1.0, "1"])
def test_from_sparse_column_must_be_an_int(bad):
    with pytest.raises(DimensionMismatchError, match=f"^column {bad!r} is not an int$"):
        Matrix.from_sparse(ZZ, 3, [{0: 1}, {bad: 1}])
    with pytest.raises(DimensionMismatchError):
        Matrix.from_sparse(ZZ, 3, [{0: 1, bad: 1, 2: 1}])


def test_matrix_drops_entries_that_vanish_mod_m():
    matrix = Matrix.from_rows(Zmod(6), [[6, 1, -12], [1, 2, 3], [7, -4, 9]])
    assert matrix.sparse[0] == ((1, 1),)
    assert matrix.sparse[1] == matrix.sparse[2]
    rows, rhs = _dedup_rows(matrix.sparse, [0, 0, 0])
    assert rows == [{1: 1}, {0: 1, 1: 2, 2: 3}]
    assert rhs == [0, 0]


def test_no_solve_densifies(monkeypatch):
    def refuse(self):
        raise AssertionError("dense view of a matrix read")

    monkeypatch.setattr(Matrix, "entries", property(refuse))
    assert not ring_separability(build_group("S4"), Zmod(6)).separable
    assert derivation_space(build_group("S4"), ZZ).is_zero()
    assert commutant_basis(build_group("S3"), QQ).matches_diagonal_span
    assert isinstance(invert(gamma(build_group("S3"), QQ)), BurnsideElement)


def test_snf_identity_and_zero():
    assert _diagonal(_eliminate([[1, 0], [0, 1]])[1]) == [1, 1]
    assert _diagonal(_eliminate([[0, 0], [0, 0]])[1]) == [0, 0]


def test_snf_diag_2_3():
    assert _diagonal(_eliminate([[2, 0], [0, 3]])[1]) == [1, 6]
    assert _diagonal(_eliminate([[2, 4], [6, 8]])[1]) == [2, 4]


def test_snf_properties_random():
    rng = random.Random(20240817)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, s, v = _eliminate(a)
        prod = mat_mul(mat_mul(u, a), v)
        assert prod == s
        diag = _diagonal(s)
        for x, y in zip(diag, diag[1:]):
            if x != 0:
                assert y % x == 0
            else:
                assert y == 0
        assert abs(bareiss_det(u)) == 1
        assert abs(bareiss_det(v)) == 1


def test_solve_examples_from_small_systems():
    # 2x = 1 has no integer solution
    res = solve_linear(Matrix.from_rows(ZZ, [[2]]), [1])
    assert isinstance(res, NoSolution)
    assert res.certificate["kind"] == "invariant_factor"

    # 2x = 1 mod 3: x = 2, no kernel
    res = solve_linear(Matrix.from_rows(Zmod(3), [[2]]), [1])
    assert isinstance(res, Solution)
    assert res.particular == [2]
    assert res.kernel == []

    # 2x = 0 mod 4: kernel spanned by 2
    res = solve_linear(Matrix.from_rows(Zmod(4), [[2]]), [0])
    assert isinstance(res, Solution)
    assert res.particular == [0]
    assert res.kernel == [[2]]


@pytest.mark.parametrize("ring", [ZZ, QQ, Zmod(4)], ids=lambda ring: ring.spec)
def test_all_trivial_system_gives_identity_kernel(ring):
    identity = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    systems = [[{}, {}], []]  # every row zero; no rows at all
    if ring == Zmod(4):
        systems.append([{0: 4, 1: 8}, {}])  # rows that vanish mod 4
    solve = dense_solve_rational if ring == QQ else solve_linear
    for rows in systems:
        res = solve(Matrix.from_sparse(ring, 3, rows), [0] * len(rows))
        assert isinstance(res, Solution)
        assert res.particular == [0, 0, 0]
        assert res.kernel == identity
        assert all(type(x) is type(ring.zero)
                   for vec in [res.particular, *res.kernel] for x in vec)


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve_linear(Matrix.from_rows(ZZ, [[1, 2]]), [1, 2])


def test_solve_refuses_q(monkeypatch):
    # no verdict solves over Q: refused before the rows are deduplicated
    def refuse(*args):
        raise AssertionError("rows deduplicated for a solve over Q")

    monkeypatch.setattr(burnside.rings, "_dedup_rows", refuse)
    for a, b in (([[1]], [1]), ([[1, 2]], [1, 2]), ([], [])):
        with pytest.raises(RingMismatchError, match="not Q$"):
            solve_linear(Matrix.from_rows(QQ, a), b)


def test_solve_integer_properties():
    rng = random.Random(99)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randint(-4, 4) for _ in range(cols)]
        b = [sum(r * v for r, v in zip(row, x)) for row in a]
        res = solve_linear(Matrix.from_rows(ZZ, a), b)
        assert isinstance(res, Solution)
        assert [sum(r * v for r, v in zip(row, res.particular)) for row in a] == b
        for k in res.kernel:
            assert all(sum(r * v for r, v in zip(row, k)) == 0 for row in a)


def test_solve_modular_matches_enumeration():
    rng = random.Random(20240818)
    for trial in range(100):
        if trial < 60:
            m = rng.randint(2, 12)
            rows = rng.randint(1, 3)
            cols = rng.randint(1, 3)
        else:
            # deeper eliminations at small moduli
            m = rng.choice([2, 3, 4])
            rows = rng.randint(3, 5)
            cols = 4
        a = [[rng.randint(0, m - 1) for _ in range(cols)] for _ in range(rows)]
        b = [rng.randint(0, m - 1) for _ in range(rows)]
        expected = enumerate_modular_solutions(a, b, m)
        res = solve_linear(Matrix.from_rows(Zmod(m), a), b)
        if not expected:
            assert isinstance(res, NoSolution)
            assert res.certificate["kind"] == "lifted_congruence"
            continue
        assert isinstance(res, Solution)
        span = span_closure_mod(res.kernel, m, cols)
        got = {tuple((p + s) % m for p, s in zip(res.particular, off))
               for off in span}
        assert got == expected


def test_modular_diagonalization_properties():
    from math import gcd

    rng = random.Random(424242)
    for _ in range(50):
        m = rng.randint(2, 12)
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[rng.randint(0, m - 1) for _ in range(cols)] for _ in range(rows)]
        u, s, v = _eliminate(a, m)
        prod = [[x % m for x in row] for row in mat_mul(mat_mul(u, a), v)]
        assert prod == s
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
        assert gcd(bareiss_det([list(r) for r in u]) % m, m) == 1
        assert gcd(bareiss_det([list(r) for r in v]) % m, m) == 1


def _random_shapes(rng):
    """Shapes with zero rows and columns, 1 x n, n x 1 and rows < cols."""
    shapes = [(1, 1), (1, 5), (5, 1), (2, 6), (3, 7), (6, 6), (9, 4)]
    shapes += [(rng.randint(1, 7), rng.randint(1, 7)) for _ in range(33)]
    return shapes


def _random_matrix(rng, rows, cols, entry):
    a = [[entry() if rng.random() < 0.6 else 0 for _ in range(cols)]
         for _ in range(rows)]
    if rng.random() < 0.3:
        a[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in a:
            row[j] = 0
    return a


def _assert_matches_dense(a, b, m=0):
    u, s, v = dense_diagonalize_mod(a, m) if m else dense_snf_int(a)
    assert _eliminate(a, m) == (u, s, v)
    ub = [sum(x * y for x, y in zip(row, b)) for row in u]
    if m:
        ub = [x % m for x in ub]
    got, s_b, v_b = _eliminate(a, m, [[x] for x in b])
    assert (s_b, v_b) == (s, v)
    assert [row[0] for row in got] == ub


def test_sparse_elimination_matches_dense_oracle_over_z():
    rng = random.Random(60601)
    for rows, cols in _random_shapes(rng):
        a = _random_matrix(rng, rows, cols, lambda: rng.randint(-9, 9))
        b = [rng.randint(-9, 9) for _ in range(rows)]
        _assert_matches_dense(a, b)


@pytest.mark.parametrize("m", [2, 4, 6, 9, 12])
def test_sparse_elimination_matches_dense_oracle_mod_m(m):
    rng = random.Random(60602 + m)
    for rows, cols in _random_shapes(rng):
        a = _random_matrix(rng, rows, cols, lambda: rng.randrange(m))
        b = [rng.randrange(m) for _ in range(rows)]
        _assert_matches_dense(a, b, m)


@pytest.mark.parametrize("m", [0, 2, 4, 6])
def test_sparse_elimination_matches_dense_oracle_on_dependent_rows(m):
    # tall matrices spanned by a few rows, so most rows reach zero in the
    # first steps and the pivot search must pass over them from then on
    rng = random.Random(60604 + m)
    entry = (lambda: rng.randrange(m)) if m else (lambda: rng.randint(-9, 9))
    for rows, cols, rank in [(30, 4, 1), (40, 6, 2), (36, 5, 3), (24, 7, 4)]:
        basis = [[entry() for _ in range(cols)] for _ in range(rank)]
        a = []
        for _ in range(rows):
            ks = [rng.randint(-2, 2) for _ in basis]
            row = [sum(k * x[j] for k, x in zip(ks, basis)) for j in range(cols)]
            a.append([x % m for x in row] if m else row)
        b = [entry() for _ in range(rows)]
        _assert_matches_dense(a, b, m)


def test_sparse_elimination_rereads_the_pivot_position():
    # over Z, with a zero row at position t and no unit in the rows after
    # it: the pivot swapped into t leaves remainders, so its step picks a
    # pivot again, and the row now at t must be read although it was zero
    # when the step began; in [[0, 0], [2, 3], [4, 4]] the second search
    # must find the 1 left in row t, not the -2 below it
    _assert_matches_dense([[0, 0], [2, 3], [4, 4]], [1, 0, 0])
    rng = random.Random(60608)
    big = lambda: rng.choice([1, -1]) * rng.randint(2, 9)
    for rows, cols in _random_shapes(rng):
        a = [[0] * cols]
        a += [[big() if rng.random() < 0.7 else 0 for _ in range(cols)]
              for _ in range(rows)]
        a.insert(rng.randrange(2, len(a) + 1), [0] * cols)
        _assert_matches_dense(a, [rng.randint(-9, 9) for _ in a])


@pytest.mark.parametrize("spec,ring", [("S3", ZZ), ("S3", Zmod(6)), ("D8", Zmod(4))])
def test_sparse_elimination_matches_dense_oracle_on_systems(spec, ring):
    g = build_group(spec)
    m = getattr(ring, "m", 0)
    matrix, rhs = casimir_linear_system(g, ring)
    leibniz = leibniz_system(g, ring)
    for sparse, b in ((matrix.sparse, rhs),
                      (leibniz.sparse, [0] * leibniz.rows)):
        rows, b = _dedup_rows(sparse, b)
        a = [[row.get(j, 0) for j in range(matrix.cols)] for row in rows]
        _assert_matches_dense(a, b, m)
