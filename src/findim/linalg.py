"""Exact linear algebra over GF(p) and over the rationals.

Everything downstream (Hom spaces, syzygies, cohomology, homotopy systems)
reduces to the three primitives here: reduced row echelon form, linear
solve, and kernel bases.  No floating point anywhere; GF(p) elements are
ints in [0, p), rational entries are ``fractions.Fraction``.

Invariant: a ``Matrix`` holds canonical field elements (those two kinds
only) in row lists that belong to it alone.  The public constructor
``Matrix(field, rows, cols, data)`` establishes this for any input: it
checks the shape, coerces every entry and copies every row.  Results built
inside this module go through the private ``Matrix._of`` instead, which
checks and copies nothing: it trusts that its data already holds canonical
elements in freshly built rows, and takes ownership of them.  Over GF(p)
the inner loops work on plain ints and reduce once per entry per row
operation (once per output entry in a product), the delayed reduction of
FFLAS-FFPACK; over Q they use the same loops with ``Fraction`` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

_MAX_PRIME = 2**31


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
        return Fraction(0) if self.p is None else 0

    def one(self):
        return Fraction(1) if self.p is None else 1

    def coerce(self, x):
        """Bring an int / Fraction / 'a/b' string into this field."""
        if self.p is None:
            if isinstance(x, str):
                return Fraction(x)
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
            return Fraction(1) / a
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

    @classmethod
    def from_rows(cls, field: Field, rows: Sequence[Sequence]) -> "Matrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        return cls(field, nr, nc, rows)

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

    def apply(self, vec: Sequence) -> List:
        """Multiply onto a column vector given as a flat list."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        f = self.field
        out = []
        for row in self.data:
            s = f.zero()
            for a, x in zip(row, vec):
                if a != 0 and x != 0:
                    s = f.add(s, f.mul(a, x))
            out.append(s)
        return out

    def col(self, j: int) -> List:
        return [self.data[i][j] for i in range(self.rows)]

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
        data = [sum((m.data[i] for m in mats), []) for i in range(nr)]
        return Matrix._of(field, nr, sum(m.cols for m in mats), data)

    @staticmethod
    def vstack(field: Field, mats: Sequence["Matrix"], cols: Optional[int] = None) -> "Matrix":
        mats = list(mats)
        if not mats:
            return Matrix.zeros(field, 0, cols or 0)
        nc = mats[0].cols
        if any(m.cols != nc for m in mats):
            raise ValueError("column count mismatch in vstack")
        data = [row[:] for m in mats for row in m.data]
        return Matrix._of(field, sum(m.rows for m in mats), nc, data)

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


def kernel_basis(a: Matrix) -> Matrix:
    """Matrix whose columns form a basis of the null space of ``a``."""
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
    return Matrix._of(f, a.cols, len(cols), [[c[i] for c in cols] for i in range(a.cols)])


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
    return Matrix._of(
        a.field,
        a.rows,
        len(pivots),
        [[a.data[i][c] for c in pivots] for i in range(a.rows)],
    )


def in_span(basis: Matrix, vec: Sequence) -> bool:
    """Whether a column vector lies in the span of the columns of ``basis``."""
    return solve(basis, vec) is not None
