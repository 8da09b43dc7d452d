import random
from fractions import Fraction

import pytest
from util import assert_frozen

from findim.linalg import (
    GF,
    QQ,
    Field,
    Matrix,
    column_space_basis,
    complement_columns,
    kernel_basis,
    rank,
    rref,
    solve,
    solve_matrix,
)


def test_field_validation():
    with pytest.raises(ValueError):
        GF(4)
    with pytest.raises(ValueError):
        GF(1)
    assert GF(2).p == 2
    assert QQ.is_rational


def test_field_arithmetic_gf5():
    f = GF(5)
    assert f.add(3, 4) == 2
    assert f.mul(3, 4) == 2
    assert f.inv(2) == 3
    assert f.neg(2) == 3
    assert f.coerce(-1) == 4
    assert f.coerce(Fraction(1, 2)) == 3


def test_field_arithmetic_rational():
    assert QQ.coerce("2/3") == Fraction(2, 3)
    assert QQ.inv(Fraction(3)) == Fraction(1, 3)


def test_rref_identity_and_zero():
    f = GF(2)
    i2 = Matrix.identity(f, 2)
    red, piv = rref(i2)
    assert red == i2 and piv == [0, 1]
    z = Matrix.zeros(f, 3, 2)
    red, piv = rref(z)
    assert red == z and piv == []


def test_rref_rational():
    m = Matrix(QQ, 2, 3, [[2, 4, 6], [1, 2, 4]])
    red, piv = rref(m)
    assert piv == [0, 2]
    assert red.data[0] == (Fraction(1), Fraction(2), Fraction(0))


def test_rank_and_kernel():
    f = GF(3)
    m = Matrix(f, 2, 3, [[1, 2, 0], [2, 4, 0]])
    assert rank(m) == 1
    k = kernel_basis(m)
    assert k.cols == 2
    for c in range(k.cols):
        assert all(x == 0 for x in m.apply(k.col(c)))


def test_solve_consistent_and_inconsistent():
    f = GF(2)
    a = Matrix(f, 2, 2, [[1, 1], [0, 1]])
    x = solve(a, [0, 1])
    assert a.apply(x) == [0, 1]
    b = Matrix(f, 2, 1, [[1], [1]])
    assert solve(b, [1, 0]) is None


def test_solve_pins_free_variables():
    f = GF(5)
    a = Matrix(f, 1, 3, [[1, 2, 3]])
    x = solve(a, [4])
    assert x == [4, 0, 0]


def test_solve_matrix():
    f = GF(7)
    a = Matrix(f, 2, 2, [[1, 2], [3, 4]])
    b = Matrix.identity(f, 2)
    x = solve_matrix(a, b)
    assert a @ x == b


def test_zero_dimensional_shapes():
    f = GF(2)
    a = Matrix.zeros(f, 0, 3)
    assert rank(a) == 0
    assert kernel_basis(a).cols == 3
    b = Matrix.zeros(f, 3, 0)
    assert solve(b, [0, 0, 0]) == []
    assert (a @ b.transpose().transpose()).rows == 0


def test_stacking():
    f = GF(2)
    a = Matrix.identity(f, 2)
    h = Matrix.hstack(f, [a, a])
    assert (h.rows, h.cols) == (2, 4)
    d = Matrix.block_diag(f, [a, Matrix.zeros(f, 1, 1)])
    assert (d.rows, d.cols) == (3, 3) and rank(d) == 2


def test_column_space_and_span():
    f = GF(2)
    m = Matrix(f, 3, 3, [[1, 1, 0], [0, 0, 0], [1, 1, 1]])
    b = column_space_basis(m)
    assert b.cols == 2
    assert solve(b, [0, 0, 1]) is not None
    assert solve(b, [0, 1, 0]) is None


def test_matmul_shape_errors():
    f = GF(2)
    with pytest.raises(ValueError):
        Matrix.identity(f, 2) @ Matrix.identity(f, 3)


def _greedy_complement(span, cands):
    """Reference: scan the candidates left to right, keeping each one that
    raises the rank of everything kept so far."""
    f = span.field
    kept, chosen = span, []
    for j in range(cands.cols):
        test = Matrix.hstack(f, [kept, Matrix(f, cands.rows, 1, [[x] for x in cands.col(j)])])
        if rank(test) > kept.cols:
            kept, chosen = test, chosen + [j]
    return chosen


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
def test_complement_columns_matches_greedy_scan(field):
    rng = random.Random(31)

    def scalar():
        return rng.randrange(field.p) if field.p else Fraction(rng.randint(-2, 2))

    for _ in range(60):
        rows = rng.randint(0, 5)
        ncols = rng.randint(0, 4)
        span = column_space_basis(
            Matrix(field, rows, ncols, [[scalar() for _ in range(ncols)] for _ in range(rows)])
        )
        cols = []
        for _ in range(rng.randint(0, 6)):
            pool = [span.col(c) for c in range(span.cols)] + cols
            if pool and rng.random() < 0.5:
                # a combination of span columns and earlier candidates
                vec = [field.zero()] * rows
                for src in rng.sample(pool, rng.randint(1, len(pool))):
                    c = scalar()
                    vec = [field.add(x, field.mul(c, y)) for x, y in zip(vec, src)]
            else:
                vec = [scalar() for _ in range(rows)]
            cols.append(vec)
        cands = Matrix(field, rows, len(cols), [[c[r] for c in cols] for r in range(rows)])
        assert complement_columns(span, cands) == _greedy_complement(span, cands)


# -- an independent Fraction reference for the linear-algebra core ----------

ORACLE_FIELDS = [GF(2), GF(3), GF(257), QQ]


def _ref(f, x):
    """x as a Fraction, reduced to [0, p) over GF(p); no Field method used."""
    x = Fraction(x)
    if f.p is None:
        return x
    return Fraction(x.numerator * pow(x.denominator, -1, f.p) % f.p)


def _ref_rows(f, rows):
    return [[_ref(f, x) for x in row] for row in rows]


def _ref_matmul(f, a, b, inner, cols):
    def entry(row, j):
        return _ref(f, sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)))

    return [[entry(row, j) for j in range(cols)] for row in a]


def _ref_entrywise(f, op, *mats):
    return [[_ref(f, op(*xs)) for xs in zip(*rows)] for rows in zip(*mats)]


def _ref_rref(f, rows, ncols):
    """Textbook Gauss-Jordan.  It takes the last nonzero candidate as pivot,
    not the first: the reduced echelon form does not depend on that choice."""
    a = _ref_rows(f, rows)
    pivots, r = [], 0
    for c in range(ncols):
        nonzero = [i for i in range(r, len(a)) if a[i][c] != 0]
        if not nonzero:
            continue
        i = nonzero[-1]
        a[r], a[i] = a[i], a[r]
        inv = _ref(f, 1 / a[r][c])
        a[r] = [_ref(f, inv * x) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                t = a[i][c]
                a[i] = [_ref(f, x - t * y) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def _ref_solve(f, rows, ncols, b):
    red, pivots = _ref_rref(f, [row + [x] for row, x in zip(rows, b)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def _ref_kernel(f, rows, ncols):
    """Kernel basis vectors: one per free column, pivot entries from the rref."""
    red, pivots = _ref_rref(f, rows, ncols)
    vecs = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = _ref(f, -red[r][fc])
        vecs.append(v)
    return vecs


def _canonical(f, x):
    if f.p is None:
        return type(x) is Fraction
    return type(x) is int and 0 <= x < f.p


def _lists(rows):
    return [list(row) for row in rows]


def _check_result(res, inputs):
    """Every entry canonical; a matrix result has the rows of its shape and
    refuses an edit, a vector result is a list of its own: appending to it
    leaves the inputs as they read."""
    before = [m.data for m in inputs]
    rows = res.data if isinstance(res, Matrix) else [res]
    f = inputs[0].field
    assert all(_canonical(f, x) for row in rows for x in row)
    if isinstance(res, Matrix):
        assert_frozen(res)
    else:
        assert type(res) is list
        res.append(None)
    assert all(m.data is b for m, b in zip(inputs, before))


class _Sampler:
    def __init__(self, field, seed):
        self.f = field
        self.rng = random.Random(seed)

    def scalar(self):
        rng = self.rng
        if rng.random() < 0.3:
            return 0
        if self.f.p is None:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.randrange(self.f.p)

    def rows(self, nr, nc, rank=None):
        """An nr x nc list of rows; of rank at most ``rank`` when given."""
        if rank is None:
            return [[self.scalar() for _ in range(nc)] for _ in range(nr)]
        left, right = self.rows(nr, rank), self.rows(rank, nc)
        return _ref_matmul(self.f, _ref_rows(self.f, left), _ref_rows(self.f, right), rank, nc)

    def matrix(self, nr, nc, rank=None):
        return Matrix(self.f, nr, nc, self.rows(nr, nc, rank))


SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (5, 2), (4, 4), (6, 7)]
DEFICIENT = [(4, 4, 1), (5, 6, 2), (6, 3, 2), (3, 5, 0)]


def _oracle_matrices(s):
    for _ in range(3):
        for nr, nc in SHAPES:
            yield s.matrix(nr, nc)
        for nr, nc, k in DEFICIENT:
            yield s.matrix(nr, nc, k)


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_elimination_matches_reference(field):
    s = _Sampler(field, 41)
    for m in _oracle_matrices(s):
        rows = _ref_rows(field, m.data)
        red, pivots = rref(m)
        ref_red, ref_pivots = _ref_rref(field, rows, m.cols)
        assert (_lists(red.data), pivots) == (ref_red, ref_pivots)
        _check_result(red, [m])

        k = kernel_basis(m)
        ref_k = _ref_kernel(field, rows, m.cols)
        assert (k.rows, k.cols) == (m.cols, len(ref_k))
        assert [k.col(j) for j in range(k.cols)] == ref_k
        _check_result(k, [m])

        basis = column_space_basis(m)
        assert [basis.col(j) for j in range(basis.cols)] == [m.col(c) for c in ref_pivots]
        _check_result(basis, [m])

        x0 = s.rows(m.cols, 1)
        consistent = [row[0] for row in _ref_matmul(field, rows, _ref_rows(field, x0), m.cols, 1)]
        for b in (consistent, [s.scalar() for _ in range(m.rows)]):
            x = solve(m, b)
            ref_x = _ref_solve(field, rows, m.cols, b)
            assert x == ref_x
            if x is not None:
                _check_result(x, [m])

        for nb in (0, 2):
            b = s.matrix(m.rows, nb)
            ref_cols = [_ref_solve(field, rows, m.cols, b.col(j)) for j in range(nb)]
            x = solve_matrix(m, b)
            if any(c is None for c in ref_cols):
                assert x is None
            else:
                assert (x.rows, x.cols) == (m.cols, nb)
                assert [x.col(j) for j in range(nb)] == ref_cols
                _check_result(x, [m, b])
        _check_result(solve_matrix(m, m), [m])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_arithmetic_and_stacking_match_reference(field):
    s = _Sampler(field, 43)
    f = field
    for m in _oracle_matrices(s):
        rows = _ref_rows(f, m.data)
        other = s.matrix(m.rows, m.cols)
        orows = _ref_rows(f, other.data)
        c = _ref(f, s.scalar())
        n = m.rows
        cases = [
            (m + other, _ref_entrywise(f, lambda x, y: x + y, rows, orows), [m, other]),
            (m - other, _ref_entrywise(f, lambda x, y: x - y, rows, orows), [m, other]),
            (-m, _ref_entrywise(f, lambda x: -x, rows), [m]),
            (m.scale(c), _ref_entrywise(f, lambda x: c * x, rows), [m]),
            (m.transpose(), [list(col) for col in zip(*rows)] if n else [[]] * m.cols, [m]),
            (Matrix.identity(f, n), [[Fraction(i == j) for j in range(n)] for i in range(n)], [m]),
            (Matrix.zeros(f, n, m.cols), [[Fraction(0)] * m.cols for _ in range(n)], [m]),
        ]
        for nc in (0, 3):
            right = s.matrix(m.cols, nc)
            ref = _ref_matmul(f, rows, _ref_rows(f, right.data), m.cols, nc)
            cases.append((m @ right, ref, [m, right]))
        wide, small = s.matrix(n, 2), s.matrix(2, 1)
        wrows, srows = (_ref_rows(f, x.data) for x in (wide, small))
        diag = [r + [Fraction(0)] for r in rows] + [[Fraction(0)] * m.cols + q for q in srows]
        # every other row and column, from the last row and the second column
        br, bc = list(range(n))[::-2], list(range(m.cols))[1::2]
        block = Matrix(f, len(br), len(bc), [[other.data[r][c] for c in bc] for r in br])
        placed = [list(r) for r in rows]
        for r in br:
            for c in bc:
                placed[r][c] = orows[r][c]
        cases += [
            (Matrix.hstack(f, [m, wide]), [r + q for r, q in zip(rows, wrows)], [m, wide]),
            (Matrix.block_diag(f, [m, small]), diag, [m, small]),
            (m.with_block(br, bc, block), placed, [m, block]),
        ]

        for res, ref, inputs in cases:
            assert res.field == f and _lists(res.data) == ref
            _check_result(res, inputs)

        vec = s.matrix(1, m.cols)
        ref = _ref_matmul(f, rows, [[x] for x in _ref_rows(f, vec.data)[0]], m.cols, 1)
        res = m.apply(vec.data[0])
        assert res == [row[0] for row in ref]
        _check_result(res, [m, vec])


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_public_constructor_coerces_and_copies(field):
    data = [[1, -1, Fraction(2, 5)], [0, 5, "7/11"]]
    m = Matrix(field, 2, 3, data)
    assert _lists(m.data) == _ref_rows(field, data)
    assert all(_canonical(field, x) for row in m.data for x in row)
    assert_frozen(m)
    data[0][0] = 9
    assert m.data[0][0] == 1


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=repr)
def test_is_identity_reads_every_entry(field):
    for n in range(4):
        assert Matrix.identity(field, n).is_identity()
    assert not Matrix.zeros(field, 2, 3).is_identity()
    assert not Matrix.zeros(field, 2, 2).is_identity()
    for r in range(3):
        for c in range(3):
            rows = _lists(Matrix.identity(field, 3).data)
            rows[r][c] = field.add(rows[r][c], field.one())
            assert not Matrix(field, 3, 3, rows).is_identity()


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
@pytest.mark.parametrize("value", [0.5, 0.1, 1.0, True, False], ids=repr)
def test_coerce_refuses_floats_and_booleans(field, value):
    with pytest.raises(TypeError):
        field.coerce(value)
    with pytest.raises(TypeError):
        Matrix(field, 1, 2, [[1, value]])


def test_rational_zero_and_one_are_shared_constants():
    assert QQ.zero() is QQ.zero() and QQ.one() is QQ.one()
    assert (type(QQ.zero()), QQ.zero(), type(QQ.one()), QQ.one()) == (Fraction, 0, Fraction, 1)
