import random
from fractions import Fraction

import pytest

from findim.linalg import (
    GF,
    QQ,
    Field,
    Matrix,
    column_space_basis,
    complement_columns,
    in_span,
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
    assert red.data[0] == [Fraction(1), Fraction(2), Fraction(0)]


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
    v = Matrix.vstack(f, [a, a])
    assert (v.rows, v.cols) == (4, 2)
    d = Matrix.block_diag(f, [a, Matrix.zeros(f, 1, 1)])
    assert (d.rows, d.cols) == (3, 3) and rank(d) == 2


def test_column_space_and_span():
    f = GF(2)
    m = Matrix(f, 3, 3, [[1, 1, 0], [0, 0, 0], [1, 1, 1]])
    b = column_space_basis(m)
    assert b.cols == 2
    assert in_span(b, [0, 0, 1])
    assert not in_span(b, [0, 1, 0])


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
