"""Finite-dimensional path algebras kQ/I presented by a quiver with relations.

The algebra is stored through a basis of path classes: all paths of the
quiver are enumerated degree by degree and the span of the relation ideal
is removed by exact row reduction.  Only admissible presentations are
accepted (every relation is a combination of parallel paths of length at
least two), which guarantees projective covers and minimal resolutions
exist downstream.

Conventions used throughout the package:

* vertices are 0-based integers;
* a left module is a representation assigning to an arrow a: i -> j a
  linear map M_i -> M_j, stored as a (dim M_j) x (dim M_i) matrix;
* paths compose left to right, so the action of a path a1 a2 is the
  composite of the action of a2 after the action of a1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import Field, Matrix, rref
from .modules import Module


class NotFiniteDimensionalError(ValueError):
    """Raised when no nilpotency length can be certified within max_len."""


class BudgetExceededError(RuntimeError):
    """A computation would exceed its search-space or size budget."""


# Size budget of build_algebra: the paths it enumerates, and the cells of
# its dense relation matrix (checked row by row, before it is allocated).
MAX_PATHS = 2**16
MAX_RELATION_CELLS = 2**22


@dataclass(frozen=True)
class Arrow:
    id: str
    source: int
    target: int


class Quiver:
    def __init__(self, num_vertices: int, arrows: Sequence[Tuple[str, int, int]]):
        if num_vertices < 1:
            raise ValueError("quiver needs at least one vertex")
        self.num_vertices = num_vertices
        self.arrows: List[Arrow] = []
        seen = set()
        for aid, s, t in arrows:
            aid = str(aid)
            if aid in seen:
                raise ValueError(f"duplicate arrow id {aid!r}")
            if not (0 <= s < num_vertices and 0 <= t < num_vertices):
                raise ValueError(f"arrow {aid!r} endpoints out of range")
            seen.add(aid)
            self.arrows.append(Arrow(aid, s, t))
        self.arrow_index = {a.id: k for k, a in enumerate(self.arrows)}

    def reversed(self) -> "Quiver":
        return Quiver(
            self.num_vertices, [(a.id, a.target, a.source) for a in self.arrows]
        )

    def __repr__(self):
        return f"Quiver({self.num_vertices} vertices, {len(self.arrows)} arrows)"


class Relation:
    """A linear combination of parallel paths of length >= 2.

    Each term is (coefficient, list of arrow ids); the paths must share
    source and target.  Admissibility is enforced at construction.
    """

    def __init__(self, quiver: Quiver, terms: Sequence[Tuple[object, Sequence[str]]]):
        if not terms:
            raise ValueError("empty relation")
        self.terms: List[Tuple[object, Tuple[int, ...]]] = []
        st = None
        for coeff, path in terms:
            idxs = tuple(quiver.arrow_index[str(a)] for a in path)
            if len(idxs) < 2:
                raise ValueError("relation terms must have length >= 2 (admissibility)")
            arrows = [quiver.arrows[k] for k in idxs]
            for a, b in zip(arrows, arrows[1:]):
                if a.target != b.source:
                    raise ValueError("relation term is not a composable path")
            pair = (arrows[0].source, arrows[-1].target)
            if st is None:
                st = pair
            elif st != pair:
                raise ValueError("relation terms are not parallel")
            self.terms.append((coeff, idxs))
        self.source, self.target = st
        self.max_length = max(len(p) for _, p in self.terms)


# A path is (source, tuple of arrow indices); target is derived.
Path = Tuple[int, Tuple[int, ...]]


class FDAlgebra:
    """A = kQ/I with a computed path-class basis.  Use build_algebra()."""

    def __init__(
        self,
        quiver: Quiver,
        relations: Sequence[Relation],
        field: Field,
        max_len: int,
        _paths,
        _col_of,
        _basis_cols,
        _pivot_rows,
        _nilpotency,
    ):
        self.quiver = quiver
        self.relations = list(relations)
        self.field = field
        self.max_len = max_len
        self._paths: List[Path] = _paths
        self._col_of: Dict[Path, int] = _col_of
        self.basis_cols: List[int] = _basis_cols  # columns of V spanning A, in order
        self._pivot_rows: Dict[int, List[Tuple[int, object]]] = _pivot_rows
        self.nilpotency = _nilpotency
        self._basis_pos = {c: k for k, c in enumerate(_basis_cols)}
        # basis positions grouped by (source, target), preserving global order
        self.basis_by_pair: Dict[Tuple[int, int], List[int]] = {}
        for k, c in enumerate(_basis_cols):
            p = self._paths[c]
            self.basis_by_pair.setdefault((p[0], self.path_target(p)), []).append(k)
        self._proj_cache: Dict[int, Module] = {}
        # vertex tuple -> projective sum, see projsum_module
        self._projsum_cache: Dict[Tuple[int, ...], Module] = {}
        self._zero_module: Optional[Module] = None
        self._opposite: Optional[FDAlgebra] = None

    # -- bookkeeping -------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis_cols)

    @property
    def num_vertices(self) -> int:
        return self.quiver.num_vertices

    def path_target(self, path: Path) -> int:
        s, arrows = path
        return self.quiver.arrows[arrows[-1]].target if arrows else s

    def basis_path(self, k: int) -> Path:
        return self._paths[self.basis_cols[k]]

    def class_of_column(self, col: int) -> Dict[int, object]:
        """Expand the class of a path (by column) in the basis, sparsely."""
        if col in self._basis_pos:
            return {self._basis_pos[col]: self.field.one()}
        out: Dict[int, object] = {}
        f = self.field
        for c2, coeff in self._pivot_rows.get(col, []):
            out[self._basis_pos[c2]] = f.neg(coeff)
        return out

    def class_of_path(self, path: Path) -> Dict[int, object]:
        col = self._col_of.get(path)
        if col is None:
            # longer than every basis representative, hence zero in A
            return {}
        return self.class_of_column(col)

    def mult_basis(self, k1: int, k2: int) -> Dict[int, object]:
        """Structure constants: product of basis classes k1 * k2."""
        s1, a1 = self.basis_path(k1)
        s2, a2 = self.basis_path(k2)
        if self.path_target(self.basis_path(k1)) != s2:
            return {}
        return self.class_of_path((s1, a1 + a2))

    # -- canonical modules -------------------------------------------------

    def projective(self, i: int) -> Module:
        """The indecomposable projective A e_i as a representation.

        Fiber at vertex j is spanned by the path classes i -> j; an arrow
        b: j -> l acts by post-composition with b.
        """
        if not (0 <= i < self.num_vertices):
            raise ValueError(f"vertex {i} out of range")
        if i in self._proj_cache:
            return self._proj_cache[i]
        fibers = {
            j: self.basis_by_pair.get((i, j), []) for j in range(self.num_vertices)
        }
        dims = [len(fibers[j]) for j in range(self.num_vertices)]
        mats = {}
        for b_idx, arrow in enumerate(self.quiver.arrows):
            j, l = arrow.source, arrow.target
            columns = []
            row_of = {k: r for r, k in enumerate(fibers[l])}
            for k in fibers[j]:
                s, arrows = self.basis_path(k)
                col = [self.field.zero()] * dims[l]
                for k2, coeff in self.class_of_path((s, arrows + (b_idx,))).items():
                    col[row_of[k2]] = coeff
                columns.append(col)
            mats[arrow.id] = Matrix._of_columns(self.field, dims[l], columns)
        mod = Module(self, dims, mats)
        self._proj_cache[i] = mod
        return mod

    def zero_module(self) -> Module:
        """The zero module, one object per algebra: it has no entries to share."""
        if self._zero_module is None:
            self._zero_module = Module(self, [0] * self.num_vertices, {}, check=False)
        return self._zero_module

    def simple(self, i: int) -> Module:
        if not (0 <= i < self.num_vertices):
            raise ValueError(f"vertex {i} out of range")
        dims = [1 if j == i else 0 for j in range(self.num_vertices)]
        mats = {
            a.id: Matrix.zeros(self.field, dims[a.target], dims[a.source])
            for a in self.quiver.arrows
        }
        return Module(self, dims, mats)

    def opposite(self) -> "FDAlgebra":
        """The opposite algebra: arrows and relation paths reversed."""
        if self._opposite is None:
            q_op = self.quiver.reversed()
            rels_op = [
                Relation(
                    q_op,
                    [
                        (c, [self.quiver.arrows[k].id for k in reversed(p)])
                        for c, p in rel.terms
                    ],
                )
                for rel in self.relations
            ]
            self._opposite = build_algebra(q_op, rels_op, self.field, self.max_len)
            self._opposite._opposite = self
        return self._opposite

    def dual_module(self, m: Module) -> Module:
        """Vector-space dual of a left module, as a module over opposite().

        Arrow matrices are transposed; the dimension vector is unchanged.
        """
        if m.algebra is not self:
            raise ValueError("module not over this algebra")
        op = self.opposite()
        mats = {aid: mat.transpose() for aid, mat in m.arrow_mats.items()}
        return Module(op, list(m.dims), mats)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        """The algebra itself: modules and complexes compare algebras by
        identity, so a deep copy of one equals its original."""
        return self

    def __repr__(self):
        return f"FDAlgebra(dim {self.dim} over {self.field}, {self.quiver})"


def _enumerate_paths(quiver: Quiver, max_len: int) -> List[List[Path]]:
    """The paths of length <= max_len, one list per length, ending at the
    last nonempty length: once a length has no paths, no longer one has."""
    if quiver.num_vertices > MAX_PATHS:
        raise BudgetExceededError(f"more than the budget of {MAX_PATHS} paths of length 0")
    by_len: List[List[Path]] = [[(v, ()) for v in range(quiver.num_vertices)]]
    total = quiver.num_vertices
    for _ in range(max_len):
        prev = by_len[-1]
        nxt: List[Path] = []
        for s, arrows in prev:
            end = quiver.arrows[arrows[-1]].target if arrows else s
            for k, a in enumerate(quiver.arrows):
                if a.source == end:
                    nxt.append((s, arrows + (k,)))
            if total + len(nxt) > MAX_PATHS:
                raise BudgetExceededError(
                    f"more than the budget of {MAX_PATHS} paths of length <= {max_len}"
                )
        if not nxt:
            break
        total += len(nxt)
        by_len.append(nxt)
    return by_len


def build_algebra(
    quiver: Quiver,
    relations: Sequence[Relation],
    field: Field,
    max_len: int,
) -> FDAlgebra:
    """Compute the path-class basis of kQ/I and package it as an FDAlgebra.

    Raises NotFiniteDimensionalError when no length L <= max_len has all
    paths of length L reducing to zero modulo the relation ideal, and
    BudgetExceededError when a window would enumerate more than MAX_PATHS
    paths or need a relation matrix of more than MAX_RELATION_CELLS cells.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    n = max_len
    result = _build_at_length(quiver, relations, field, n)
    # products of two basis classes must stay inside the enumerated window
    need = 2 * max(0, result["nilpotency"] - 1)
    if need > n:
        wider = _build_at_length(quiver, relations, field, need)
        if wider["nilpotency"] != result["nilpotency"]:
            raise NotFiniteDimensionalError(
                "nilpotency length unstable under window growth; "
                "increase max_len for this presentation"
            )
        result = wider
    return FDAlgebra(
        quiver,
        relations,
        field,
        max_len,
        result["paths"],
        result["col_of"],
        result["basis_cols"],
        result["pivot_rows"],
        result["nilpotency"],
    )


def _build_at_length(quiver: Quiver, relations, field: Field, n: int) -> dict:
    by_len = _enumerate_paths(quiver, n)
    paths: List[Path] = [p for lvl in by_len for p in lvl]
    col_of = {p: c for c, p in enumerate(paths)}
    path_target = lambda p: quiver.arrows[p[1][-1]].target if p[1] else p[0]

    # rows spanning the ideal inside the span of paths of length <= n
    ncols = len(paths)
    rows: List[Dict[int, object]] = []
    for rel in relations:
        lm = rel.max_length
        for u in paths:
            if path_target(u) != rel.source or len(u[1]) + lm > n:
                continue
            for w in paths:
                if w[0] != rel.target or len(u[1]) + lm + len(w[1]) > n:
                    continue
                row: Dict[int, object] = {}
                for coeff, term in rel.terms:
                    col = col_of[(u[0], u[1] + term + w[1])]
                    c0 = row.get(col, field.zero())
                    row[col] = field.add(c0, field.coerce(coeff))
                if any(v != 0 for v in row.values()):
                    if (len(rows) + 1) * ncols > MAX_RELATION_CELLS:
                        raise BudgetExceededError(
                            f"relation matrix of more than {len(rows)} x {ncols} "
                            f"cells at path length {n} exceeds the budget of "
                            f"{MAX_RELATION_CELLS} cells"
                        )
                    rows.append(row)

    zero = field.zero()
    data = tuple([tuple([row.get(c, zero) for c in range(ncols)]) for row in rows])
    red, pivots = rref(Matrix._of(field, len(rows), ncols, data))
    pivot_set = set(pivots)
    basis_cols = [c for c in range(ncols) if c not in pivot_set]
    pivot_rows: Dict[int, List[Tuple[int, object]]] = {}
    for r, c in enumerate(pivots):
        pivot_rows[c] = [
            (c2, red.data[r][c2])
            for c2 in range(c + 1, ncols)
            if red.data[r][c2] != 0 and c2 not in pivot_set
        ]

    max_basis_len = max(len(paths[c][1]) for c in basis_cols)
    nilpotency = max_basis_len + 1
    if nilpotency > n:
        # every path of length <= n survives only up to max_basis_len, but we
        # still must rule out paths of length n+1; if none exist the algebra
        # is the full truncation-free path algebra and L = n+1 is certified
        has_longer = False
        for s, arrows in by_len[-1]:
            end = quiver.arrows[arrows[-1]].target if arrows else s
            if any(a.source == end for a in quiver.arrows):
                has_longer = True
                break
        if has_longer:
            raise NotFiniteDimensionalError(
                f"not finite-dimensional within max_len={n}: "
                f"paths of length {n} survive reduction"
            )
    return {
        "paths": paths,
        "col_of": col_of,
        "basis_cols": basis_cols,
        "pivot_rows": pivot_rows,
        "nilpotency": nilpotency,
    }
