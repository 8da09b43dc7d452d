"""Exact linear algebra over GF(p) and over the rationals.

Everything downstream (Hom spaces, syzygies, cohomology, homotopy systems)
reduces to the three primitives here: reduced row echelon form, linear
solve, and kernel bases.  No floating point anywhere; GF(p) elements are
ints in [0, p), rational entries are ``fractions.Fraction``.

Invariant: a ``Matrix`` holds canonical field elements (those two kinds
only) in row lists that belong to it alone.  The public constructor
``Matrix(field, rows, cols, data)`` establishes this for any input: it
checks the shape, coerces every entry and copies every row.  Results built
inside the library from canonical elements (here, and in the Hom
complexes and direct sums of ``complexes``) go through the private
``Matrix._of`` instead, which checks and copies nothing: it trusts that
its data already holds canonical elements in freshly built rows, and
takes ownership of them.  Over GF(p) the inner loops work on plain ints
and reduce once per entry per row operation (once per output entry in a
product), the delayed reduction of FFLAS-FFPACK; over Q they use the same
loops with ``Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

_MAX_PRIME = 2**31
# Fractions are immutable, so every rational zero and one can be these two
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """GF(p) for a prime p < 2**31, or the rationals (p is None)."""

    def __init__(self, p: Optional[int] = None):
        if p is not None:
            if not (2 <= p < _MAX_PRIME):
                raise ValueError(f"characteristic out of range: {p}")
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def is_rational(self) -> bool:
        return self.p is None

    def zero(self):
        return _Q_ZERO if self.p is None else 0

    def one(self):
        return _Q_ONE if self.p is None else 1

    def coerce(self, x):
        """Bring an int / Fraction / 'a/b' string into this field.

        Floats and booleans raise TypeError: the arithmetic is exact, and
        int() would read 0.5 as 0 and True as 1.  A plain int, the common
        input, is read before any other test.
        """
        if type(x) is int:
            return Fraction(x) if self.p is None else x % self.p
        if isinstance(x, (bool, float)):
            raise TypeError(f"not an exact scalar: {x!r}")
        if self.p is None:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ValueError(f"denominator not invertible mod {self.p}")
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        return int(x) % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if self.p is None:
            if a == 0:
                raise ZeroDivisionError("inverse of zero")
            return _Q_ONE / a
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field(None)


def GF(p: int) -> Field:
    return Field(p)


class Matrix:
    """Dense exact matrix.  0xN and Nx0 shapes are legal (maps to/from 0)."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data: Sequence[Sequence]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("matrix data does not match shape")
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = [[field.coerce(x) for x in r] for r in data]

    @classmethod
    def _of(cls, field: Field, rows: int, cols: int, data: List[List]) -> "Matrix":
        """Trusted constructor: ``data`` must be rows x cols canonical
        elements of ``field`` in row lists nothing else holds."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return cls._of(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        m = cls.zeros(field, n, n)
        one = field.one()
        for i in range(n):
            m.data[i][i] = one
        return m

    def copy(self) -> "Matrix":
        return Matrix._of(self.field, self.rows, self.cols, [row[:] for row in self.data])

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        p = self.field.p
        pairs = zip(self.data, other.data)
        if p is None:
            data = [[a + b for a, b in zip(ra, rb)] for ra, rb in pairs]
        else:
            data = [[(a + b) % p for a, b in zip(ra, rb)] for ra, rb in pairs]
        return Matrix._of(self.field, self.rows, self.cols, data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        p = self.field.p
        pairs = zip(self.data, other.data)
        if p is None:
            data = [[a - b for a, b in zip(ra, rb)] for ra, rb in pairs]
        else:
            data = [[(a - b) % p for a, b in zip(ra, rb)] for ra, rb in pairs]
        return Matrix._of(self.field, self.rows, self.cols, data)

    def __neg__(self) -> "Matrix":
        p = self.field.p
        if p is None:
            data = [[-a for a in row] for row in self.data]
        else:
            data = [[-a % p for a in row] for row in self.data]
        return Matrix._of(self.field, self.rows, self.cols, data)

    def scale(self, c) -> "Matrix":
        c = self.field.coerce(c)
        p = self.field.p
        if p is None:
            data = [[c * a for a in row] for row in self.data]
        else:
            data = [[c * a % p for a in row] for row in self.data]
        return Matrix._of(self.field, self.rows, self.cols, data)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch for product: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        f = self.field
        p = f.p
        z = f.zero()
        bdata = other.data
        data = []
        for srow in self.data:
            acc = [z] * other.cols
            for a, brow in zip(srow, bdata):
                if a:
                    acc = [x + a * y for x, y in zip(acc, brow)]
            data.append(acc if p is None else [x % p for x in acc])
        return Matrix._of(f, self.rows, other.cols, data)

    def transpose(self) -> "Matrix":
        return Matrix._of(
            self.field,
            self.cols,
            self.rows,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def is_identity(self) -> bool:
        """Whether this is an identity matrix, read from the entries."""
        n = self.cols
        if self.rows != n:
            return False
        for i, row in enumerate(self.data):
            if row[i] != 1 or row.count(0) != n - 1:
                return False
        return True

    def apply(self, vec: Sequence) -> List:
        """Multiply onto a column vector given as a flat list."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        p = self.field.p
        z = self.field.zero()
        out = []
        for row in self.data:
            s = z
            for a, x in zip(row, vec):
                if a and x:
                    s += a * x
            out.append(s if p is None else s % p)
        return out

    def col(self, j: int) -> List:
        return [self.data[i][j] for i in range(self.rows)]

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "Matrix":
        """The entries at these row and column indices, in the order given."""
        data = []
        for r in rows:
            row = self.data[r]
            data.append([row[c] for c in cols])
        return Matrix._of(self.field, len(data), len(cols), data)

    def place(self, rows: Sequence[int], cols: Sequence[int], block: "Matrix") -> None:
        """Write ``block`` into this matrix at these row and column indices.

        Only for a matrix under construction that nothing else holds yet.
        """
        for r, brow in zip(rows, block.data):
            out = self.data[r]
            for c, e in zip(cols, brow):
                out[c] = e

    def _check_same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    # -- stacking ----------------------------------------------------------

    @staticmethod
    def hstack(field: Field, mats: Sequence["Matrix"], rows: Optional[int] = None) -> "Matrix":
        mats = list(mats)
        if not mats:
            return Matrix.zeros(field, rows or 0, 0)
        nr = mats[0].rows
        if any(m.rows != nr for m in mats):
            raise ValueError("row count mismatch in hstack")
        data = [sum(rows, []) for rows in zip(*(m.data for m in mats))]
        return Matrix._of(field, nr, sum(m.cols for m in mats), data)

    @staticmethod
    def block_diag(field: Field, mats: Sequence["Matrix"]) -> "Matrix":
        rows = sum(m.rows for m in mats)
        cols = sum(m.cols for m in mats)
        out = Matrix.zeros(field, rows, cols)
        r0 = c0 = 0
        for m in mats:
            for i in range(m.rows):
                out.data[r0 + i][c0 : c0 + m.cols] = m.data[i][:]
            r0 += m.rows
            c0 += m.cols
        return out

    def __repr__(self):
        return f"Matrix({self.field}, {self.rows}x{self.cols})"


# -- row reduction and friends ---------------------------------------------


def rref(m: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form with the strictly increasing pivot columns.

    Rows are processed in order and the first nonzero entry in a column is
    taken as pivot, so the result is deterministic for a given input.
    """
    f = m.field
    p = f.p
    a = [row[:] for row in m.data]
    pivots: List[int] = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        pr = None
        for i in range(r, m.rows):
            if a[i][c]:
                pr = i
                break
        if pr is None:
            continue
        prow = a[pr]
        a[pr] = a[r]
        inv = f.inv(prow[c])
        if p is None:
            prow = [inv * x for x in prow]
        else:
            prow = [inv * x % p for x in prow]
        a[r] = prow
        for i, row in enumerate(a):
            t = row[c]
            if t and i != r:
                if p is None:
                    a[i] = [x - t * y for x, y in zip(row, prow)]
                else:
                    a[i] = [(x - t * y) % p for x, y in zip(row, prow)]
        pivots.append(c)
        r += 1
    return Matrix._of(f, m.rows, m.cols, a), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def solve(a: Matrix, b: Sequence) -> Optional[List]:
    """Some x with a @ x = b, or None when the system is inconsistent.

    Free variables are pinned to zero, which makes every downstream
    construction (liftings, homotopies) reproducible.
    """
    b = list(b)
    if len(b) != a.rows:
        raise ValueError("right-hand side length mismatch")
    f = a.field
    aug = Matrix._of(f, a.rows, a.cols + 1, [row + [f.coerce(x)] for row, x in zip(a.data, b)])
    red, pivots = rref(aug)
    if a.cols in pivots:
        return None
    x = [f.zero()] * a.cols
    for r, c in enumerate(pivots):
        x[c] = red.data[r][a.cols]
    return x


def solve_matrix(a: Matrix, b: Matrix) -> Optional[Matrix]:
    """Some X with a @ X = b, solved column by column; None if any fails."""
    if b.rows != a.rows:
        raise ValueError("shape mismatch")
    f = a.field
    aug = Matrix.hstack(f, [a, b])
    red, pivots = rref(aug)
    if any(c >= a.cols for c in pivots):
        return None
    x = Matrix.zeros(f, a.cols, b.cols)
    for r, c in enumerate(pivots):
        x.data[c] = red.data[r][a.cols :]
    return x


def _null_space(a: Matrix) -> Tuple[Matrix, List[int]]:
    """The kernel basis of ``a`` with its free columns, in increasing order.

    Column k of the basis is one at row free[k] and zero at the other free
    rows, so the rows ``free`` of the basis form an identity matrix: the
    coordinates of a kernel vector in this basis are its entries at the
    free rows.
    """
    f = a.field
    red, pivots = rref(a)
    free = [c for c in range(a.cols) if c not in pivots]
    cols = []
    for fc in free:
        v = [f.zero()] * a.cols
        v[fc] = f.one()
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(red.data[r][fc])
        cols.append(v)
    basis = Matrix._of(f, a.cols, len(cols), [[c[i] for c in cols] for i in range(a.cols)])
    return basis, free


def kernel_basis(a: Matrix) -> Matrix:
    """Matrix whose columns form a basis of the null space of ``a``."""
    return _null_space(a)[0]


def complement_columns(span: Matrix, cands: Matrix) -> List[int]:
    """Indices of the columns of ``cands`` that extend the independent
    columns of ``span`` to a basis of their joint span.

    A column is chosen when it is outside the span of ``span`` and of the
    candidates before it, which are exactly the pivot columns of one rref
    of ``[span | cands]`` past ``span``.
    """
    _, pivots = rref(Matrix.hstack(span.field, [span, cands], rows=span.rows))
    return [c - span.cols for c in pivots if c >= span.cols]


def _invertible_mod_p(rows: Sequence[List[int]], p: int) -> bool:
    """Whether the square matrix with these int rows is invertible mod p.

    Forward elimination that stops at the first column without a pivot.
    The row lists are read, never written.
    """
    a = list(rows)
    n = len(a)
    for c in range(n):
        for r in range(c, n):
            if a[r][c]:
                break
        else:
            return False
        piv = a[r]
        a[r] = a[c]
        inv = pow(piv[c], -1, p)
        for i in range(c + 1, n):
            x = a[i][c]
            if x:
                t = x * inv % p
                a[i] = [(y - t * z) % p for y, z in zip(a[i], piv)]
    return True


def column_space_basis(a: Matrix) -> Matrix:
    """Columns of ``a`` indexed by the pivot columns of its rref."""
    _, pivots = rref(a)
    return a.submatrix(range(a.rows), pivots)
