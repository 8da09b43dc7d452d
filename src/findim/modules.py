"""Finite-dimensional modules over a path algebra and their homological data.

A module is a representation: one fiber dimension per vertex and one exact
matrix per arrow.  On top of that this file provides Hom spaces (solved as
commutation linear systems), projective covers, syzygies, minimal
projective resolutions with a cutoff, and projective/injective dimension.

Projective modules appear in two flavours: as plain Modules, and as
"projective sums" described by a tuple of vertices (i1, ..., ik) standing
for Ae_{i1} + ... + Ae_{ik}.  Maps out of a projective sum are determined
by generator images, which keeps all Hom computations out of projectives
cheap and canonical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from operator import add
from types import MappingProxyType
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple

from .linalg import (
    Matrix,
    _invertible_mod_p,
    _null_space,
    _product,
    column_space_basis,
    complement_columns,
    kernel_basis,
    rank,
    solve_matrix,
)


class _Memoized:
    """Base of the objects that remember answers on themselves, in
    underscore attributes, or hold read-only mappings.  Copies and pickles
    leave the answers behind, so no weak reference of a memo is copied and
    a copy computes its own answers.  A read-only mapping travels as a
    plain dict and is wrapped again on arrival.  A deep copy shares the
    algebra and the matrices of its original, which refuse an edit, and so
    equals it; a pickled copy works over an algebra of its own."""

    def __getstate__(self):
        state = {k: v for k, v in self.__dict__.items() if not k.startswith("_")}
        return {k: dict(v) if type(v) is MappingProxyType else v for k, v in state.items()}

    def __setstate__(self, state):
        for k, v in state.items():
            setattr(self, k, MappingProxyType(v) if type(v) is dict else v)


class Module(_Memoized):
    """Representation of a quiver algebra: dims per vertex, matrix per arrow.

    `dims` is a tuple and `arrow_mats` a read-only mapping: the resolution
    that `resolution_steps` remembers on a module is always its own.
    """

    def __init__(self, algebra, dims: Sequence[int], arrow_mats: Mapping[str, Matrix], check: bool = True):
        self.algebra = algebra
        self.dims = tuple(dims)
        if len(self.dims) != algebra.num_vertices or any(d < 0 for d in self.dims):
            raise ValueError("bad dimension vector")
        mats = dict(arrow_mats)
        for a in algebra.quiver.arrows:
            m = mats.get(a.id)
            if m is None:
                m = Matrix.zeros(algebra.field, self.dims[a.target], self.dims[a.source])
                mats[a.id] = m
            if (m.rows, m.cols) != (self.dims[a.target], self.dims[a.source]):
                raise ValueError(f"arrow {a.id!r}: matrix shape does not match dims")
        if len(mats) > len(algebra.quiver.arrows):
            known = {a.id for a in algebra.quiver.arrows}
            raise ValueError(f"unknown arrow id(s) {sorted(k for k in mats if k not in known)}")
        self.arrow_mats = MappingProxyType(mats)
        if check:
            self._check_relations()

    def _check_relations(self):
        alg = self.algebra
        plan = _relation_plan(alg, self.dims)
        flat = [x for a in alg.quiver.arrows for row in self.arrow_mats[a.id].data for x in row] if plan else ()
        if not _relations_vanish(plan, flat, alg.field.p):
            raise ValueError("relations do not vanish on the module")

    def act_path(self, path) -> Matrix:
        """Matrix of the action of a path, from its source fiber to target;
        for a single arrow, the module's own matrix."""
        src, arrows = path
        if not arrows:
            return Matrix.identity(self.algebra.field, self.dims[src])
        q = self.algebra.quiver
        m = self.arrow_mats[q.arrows[arrows[0]].id]
        for k in arrows[1:]:
            m = self.arrow_mats[q.arrows[k].id] @ m
        return m

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Module)
            and self.algebra is other.algebra
            and self.dims == other.dims
            and all(
                self.arrow_mats[a.id] == other.arrow_mats[a.id]
                for a in self.algebra.quiver.arrows
            )
        )

    def __repr__(self):
        return f"Module(dims={self.dims})"


def _relation_plan(algebra, dims: Tuple[int, ...]):
    """The relations of `algebra` laid out for modules of dimension vector
    `dims`, remembered on the algebra.  The arrow matrices are one flat
    sequence: arrows in quiver order, each matrix row by row.  A relation
    is its target fibre dimension and its terms; a term is its coefficient,
    then the offset and columns of its arrows, last first."""
    plan = algebra._relation_plans.get(dims)
    if plan is None:
        arrows, coerce = algebra.quiver.arrows, algebra.field.coerce
        offsets = list(accumulate([dims[a.target] * dims[a.source] for a in arrows], initial=0))
        plan = []
        for rel in algebra.relations:
            terms = []
            for coeff, path in rel.terms:
                (off, c), *rest = [(offsets[k], dims[arrows[k].source]) for k in reversed(path)]
                terms.append((coerce(coeff), off, c, tuple(rest)))
            plan.append((dims[rel.target], tuple(terms)))
        plan = algebra._relation_plans[dims] = tuple(plan)
    return plan


def _relations_vanish(plan, flat: Sequence, p: Optional[int]) -> bool:
    """Whether every relation of `plan` vanishes on the arrow matrices laid
    out in `flat`, over GF(p), or over Q when p is None.  Row i of a
    relation is row i of its last arrow carried along the rest of each
    term's path as a row vector, one row operation per nonzero entry, so
    the cost is linear in the path length.  A nonzero row answers False."""
    for rows, terms in plan:
        for i in range(rows):
            acc = None
            for coeff, off, c, rest in terms:
                row = v = flat[off + i * c : off + (i + 1) * c]
                for off, c in rest:
                    if p is not None and v is not row:
                        v = [x % p for x in v]
                    w = (0,) * c
                    for a in v:
                        if a:
                            w = [x + a * y for x, y in zip(w, flat[off : off + c])]
                        off += c
                    v = w
                if coeff != 1:
                    v = [coeff * x for x in v]
                acc = v if acc is None else list(map(add, acc, v))
            if any([x % p for x in acc] if p else acc):
                return False
    return True


class ModuleMap(_Memoized):
    """A homomorphism of modules: one matrix per vertex, commuting with arrows.

    The constructor checks the matrix shapes only; `commutes` checks the
    arrows."""

    def __init__(self, source: Module, target: Module, mats: Sequence[Matrix]):
        if source.algebra is not target.algebra:
            raise ValueError("source and target over different algebras")
        self.source = source
        self.target = target
        self.mats = tuple(mats)
        for v in range(source.algebra.num_vertices):
            m = self.mats[v]
            if (m.rows, m.cols) != (target.dims[v], source.dims[v]):
                raise ValueError(f"vertex {v}: matrix shape mismatch")

    def commutes(self) -> bool:
        for a in self.source.algebra.quiver.arrows:
            lhs = self.mats[a.target] @ self.source.arrow_mats[a.id]
            rhs = self.target.arrow_mats[a.id] @ self.mats[a.source]
            if lhs != rhs:
                return False
        return True

    @classmethod
    def zero(cls, source: Module, target: Module) -> "ModuleMap":
        f = source.algebra.field
        return cls(
            source,
            target,
            [
                Matrix.zeros(f, target.dims[v], source.dims[v])
                for v in range(source.algebra.num_vertices)
            ],
        )

    @classmethod
    def identity(cls, m: Module) -> "ModuleMap":
        """The identity of m, built once and remembered on m."""
        ident = getattr(m, "_identity", None)
        if ident is None:
            f = m.algebra.field
            ident = m._identity = cls(m, m, [Matrix.identity(f, d) for d in m.dims])
        return ident

    def compose(self, first: "ModuleMap") -> "ModuleMap":
        """self after first.

        Where a factor is an identity matrix, recognised by its entries,
        the other factor itself is the product.
        """
        if first.target is not self.source and first.target.dims != self.source.dims:
            raise ValueError("maps not composable")
        mats = map(_product, self.mats, first.mats)
        return ModuleMap(first.source, self.target, mats)

    def __add__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target, [a + b for a, b in zip(self.mats, other.mats)])

    def __sub__(self, other: "ModuleMap") -> "ModuleMap":
        return ModuleMap(self.source, self.target, [a - b for a, b in zip(self.mats, other.mats)])

    def scale(self, c) -> "ModuleMap":
        return ModuleMap(self.source, self.target, [m.scale(c) for m in self.mats])

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.mats)

    def __eq__(self, other):
        return (
            isinstance(other, ModuleMap)
            and self.source.dims == other.source.dims
            and self.target.dims == other.target.dims
            and self.mats == other.mats
        )

    def is_isomorphism(self) -> bool:
        return all(m.rows == m.cols and rank(m) == m.rows for m in self.mats)


def direct_sum_modules(algebra, mods: Sequence[Module]) -> Module:
    """Degreewise direct sum, the summands' fibers in order."""
    f = algebra.field
    dims = [sum(m.dims[v] for m in mods) for v in range(algebra.num_vertices)]
    mats = {}
    for a in algebra.quiver.arrows:
        mats[a.id] = Matrix.block_diag(f, [m.arrow_mats[a.id] for m in mods])
    return Module(algebra, dims, mats, check=False)


# -- Hom spaces --------------------------------------------------------------


def hom_space(m: Module, n: Module) -> List[ModuleMap]:
    """Basis of Hom_A(m, n), solved from the commutation linear system."""
    if m.algebra is not n.algebra:
        raise ValueError("modules over different algebras")
    alg = m.algebra
    f = alg.field
    nv = alg.num_vertices
    # unknowns: entries of f_v (n.dims[v] x m.dims[v]), vertex by vertex, row-major
    var_offset = []
    nvars = 0
    for v in range(nv):
        var_offset.append(nvars)
        nvars += n.dims[v] * m.dims[v]

    def var(v, r, c):
        return var_offset[v] + r * m.dims[v] + c

    rows: List[Tuple] = []
    zero = f.zero()
    for a in alg.quiver.arrows:
        i, j = a.source, a.target
        ma, na = m.arrow_mats[a.id], n.arrow_mats[a.id]
        # (n_a @ f_i - f_j @ m_a)[r][c] = 0 for r < n.dims[j], c < m.dims[i]
        for r in range(n.dims[j]):
            for c in range(m.dims[i]):
                row = [zero] * nvars
                for k in range(n.dims[i]):
                    if na.data[r][k] != 0:
                        row[var(i, k, c)] = f.add(row[var(i, k, c)], na.data[r][k])
                for k in range(m.dims[j]):
                    if ma.data[k][c] != 0:
                        row[var(j, r, k)] = f.sub(row[var(j, r, k)], ma.data[k][c])
                if any(x != 0 for x in row):
                    rows.append(tuple(row))
    kb = kernel_basis(Matrix._of(f, len(rows), nvars, tuple(rows)))
    basis = []
    for vec in kb.transpose().data:
        mats = []
        for v in range(nv):
            d_m, o = m.dims[v], var_offset[v]
            block = tuple([vec[o + r * d_m : o + (r + 1) * d_m] for r in range(n.dims[v])])
            mats.append(Matrix._of(f, n.dims[v], d_m, block))
        basis.append(ModuleMap(m, n, mats))
    return basis


# -- projective sums and Yoneda-style maps ----------------------------------


def projsum_module(algebra, verts: Sequence[int]) -> Module:
    """The module Ae_{i1} + ... + Ae_{ik}; `projsum_offsets` places its summands.

    The module is built once per (algebra, vertex tuple) and remembered on
    the algebra, shared by every caller like `algebra.projective(i)`.
    """
    key = tuple(verts)
    mod = algebra._projsum_cache.get(key)
    if mod is None:
        mod = algebra._projsum_cache[key] = direct_sum_modules(
            algebra, [algebra.projective(i) for i in key]
        )
    return mod


def _trivial_path_pos(algebra, i: int) -> int:
    """Position of the class of e_i inside the fiber of Ae_i at vertex i."""
    for pos, k in enumerate(algebra.basis_by_pair.get((i, i), [])):
        if len(algebra.basis_path(k)[1]) == 0:
            return pos
    raise RuntimeError("idempotent path missing from basis")


def map_from_generator_images(
    algebra, verts: Sequence[int], target: Module, images: Sequence[Sequence]
) -> ModuleMap:
    """The unique map from the projective sum sending each generator e_{i_k}
    to the given vector in the target fiber at i_k.

    The column of a basis path is the image vector moved along the path's
    arrows one at a time; paths that start with the same arrows share the
    vectors of that prefix.
    """
    src = projsum_module(algebra, verts)
    f = algebra.field
    nv = algebra.num_vertices
    arrows = [target.arrow_mats[a.id] for a in algebra.quiver.arrows]
    columns = [[None] * d for d in src.dims]
    for k, (i, offsets) in enumerate(zip(verts, projsum_offsets(algebra, verts))):
        img = [f.coerce(x) for x in images[k]]
        if len(img) != target.dims[i]:
            raise ValueError(f"generator image {k} has wrong length")
        moved = {(): img}  # arrow sequence -> the image moved along it
        for v in range(nv):
            for pos, bidx in enumerate(algebra.basis_by_pair.get((i, v), []), offsets[v]):
                path = algebra.basis_path(bidx)[1]
                n = len(path)
                while path[:n] not in moved:
                    n -= 1
                vec = moved[path[:n]]
                for a in path[n:]:
                    n += 1
                    vec = moved[path[:n]] = arrows[a].apply(vec)
                columns[v][pos] = vec
    mats = [Matrix._of_columns(f, target.dims[v], columns[v]) for v in range(nv)]
    return ModuleMap(src, target, mats)


def projsum_offsets(algebra, verts: Sequence[int]) -> List[List[int]]:
    """Per summand, per vertex: where its fiber starts in the projective sum.

    The offsets are the partial sums of the dimension vectors of the
    projectives Ae_i, read without building the sum.
    """
    acc = [0] * algebra.num_vertices
    out = []
    for i in verts:
        out.append(acc)
        acc = list(map(add, acc, algebra.projective(i).dims))
    return out


def generator_positions(algebra, verts: Sequence[int]) -> List[Tuple[int, int]]:
    """For each summand: (vertex, column index of its generator in that fiber)."""
    offsets = projsum_offsets(algebra, verts)
    return [
        (i, offsets[k][i] + _trivial_path_pos(algebra, i))
        for k, i in enumerate(verts)
    ]


def yoneda_coordinates(algebra, verts: Sequence[int], f_map: ModuleMap) -> List:
    """Generator images of a map out of a projective sum, concatenated.

    This is the coordinate vector in the canonical basis of
    Hom(projsum, target), of dimension sum_k dim(target at i_k).
    """
    out: List = []
    for i, col in generator_positions(algebra, verts):
        out.extend(f_map.mats[i].col(col))
    return out


def yoneda_dim(algebra, verts: Sequence[int], target: Module) -> int:
    return sum(target.dims[i] for i in verts)


# -- radical, top, covers ----------------------------------------------------


def radical_basis(m: Module) -> List[Matrix]:
    """Per vertex, a matrix whose columns span rad(M) = sum of arrow images."""
    alg = m.algebra
    f = alg.field
    out = []
    for v in range(alg.num_vertices):
        cols = [m.arrow_mats[a.id] for a in alg.quiver.arrows if a.target == v]
        stacked = Matrix.hstack(f, cols, rows=m.dims[v]) if cols else Matrix.zeros(f, m.dims[v], 0)
        out.append(column_space_basis(stacked))
    return out


def projective_cover(m: Module) -> Tuple[Module, ModuleMap, List[int]]:
    """Minimal projective cover (P, P -> M, vertex list of the summands).

    P is the projective sum with one summand Ae_v per basis vector of the
    top of M at v; the map hits chosen lifts of a basis of the top: each
    standard basis vector of M at v that is outside the span of the images
    of the arrows into v and of the standard vectors before it.  One rref
    of [arrows into v | identity] picks them, as the radical's span alone
    decides which columns past the arrows are pivots.
    """
    if m.is_zero():
        raise ValueError("zero module has no projective cover here")
    alg = m.algebra
    f = alg.field
    verts: List[int] = []
    images: List[List] = []
    for v in range(alg.num_vertices):
        into = [m.arrow_mats[a.id] for a in alg.quiver.arrows if a.target == v]
        eye = Matrix.identity(f, m.dims[v])
        for e in complement_columns(Matrix.hstack(f, into, rows=m.dims[v]), eye):
            verts.append(v)
            images.append(eye.col(e))
    cover = map_from_generator_images(alg, verts, m, images)
    return cover.source, cover, verts


def kernel_of(f_map: ModuleMap) -> Tuple[Module, ModuleMap]:
    """Kernel of a module map as a representation, with its inclusion.

    The kernel basis at each vertex is the identity on its free rows, so
    the coordinates of a kernel vector are its entries there: an arrow of
    the kernel is the free rows of the arrow times the basis at its
    source.  The map is a module map exactly when the basis at the target
    times those rows gives the moved basis back.
    """
    alg = f_map.source.algebra
    nv = alg.num_vertices
    kbs, frees = zip(*(_null_space(f_map.mats[v]) for v in range(nv)))
    dims = [kb.cols for kb in kbs]
    mats = {}
    for a in alg.quiver.arrows:
        i, j = a.source, a.target
        moved = f_map.source.arrow_mats[a.id] @ kbs[i]
        x = moved.submatrix(frees[j], range(moved.cols))
        if kbs[j] @ x != moved:
            raise RuntimeError("kernel is not arrow-stable; inconsistent map")
        mats[a.id] = x
    ker = Module(alg, dims, mats, check=False)
    incl = ModuleMap(ker, f_map.source, kbs)
    return ker, incl


def syzygy(m: Module) -> Module:
    """Kernel of the projective cover of m."""
    _, cover, _ = projective_cover(m)
    return kernel_of(cover)[0]


def submodule_closure(m: Module, gens: Sequence[Matrix]) -> List[Matrix]:
    """Smallest per-vertex column spans containing gens and arrow-stable."""
    alg = m.algebra
    f = alg.field
    spans = [column_space_basis(g) for g in gens]
    changed = True
    while changed:
        changed = False
        for a in alg.quiver.arrows:
            i, j = a.source, a.target
            if spans[i].cols == 0:
                continue
            moved = m.arrow_mats[a.id] @ spans[i]
            combined = column_space_basis(Matrix.hstack(f, [spans[j], moved]))
            if combined.cols > spans[j].cols:
                spans[j] = combined
                changed = True
    return spans


def quotient_module(m: Module, sub: Sequence[Matrix]) -> Tuple[Module, ModuleMap]:
    """The quotient of m by an arrow-stable per-vertex span, with projection.

    Coset representatives are the first standard basis vectors outside the
    span, so the construction is deterministic.  The projection reads the
    coordinates of each standard basis vector modulo the span, and an arrow
    of the quotient is the projection of the arrow's representative columns.
    """
    alg = m.algebra
    f = alg.field
    nv = alg.num_vertices
    chosen: List[List[int]] = []
    projs: List[Matrix] = []
    for v in range(nv):
        d, s = m.dims[v], sub[v].cols
        eye = Matrix.identity(f, d)
        reps = complement_columns(sub[v], eye)
        basis = Matrix.hstack(f, [sub[v], eye.submatrix(range(d), reps)], rows=d)
        sol = solve_matrix(basis, eye)
        chosen.append(reps)
        projs.append(sol.submatrix(range(s, s + len(reps)), range(d)))
    dims = [len(c) for c in chosen]
    mats = {}
    for a in alg.quiver.arrows:
        arrow = m.arrow_mats[a.id]
        mats[a.id] = projs[a.target] @ arrow.submatrix(range(arrow.rows), chosen[a.source])
    q = Module(alg, dims, mats, check=False)
    return q, ModuleMap(m, q, projs)


# -- isomorphism testing -----------------------------------------------------


# how many random candidates are tried before the exhaustive search
_WITNESS_TRIES = 16


def modules_isomorphic(
    m: Module, n: Module, search_bound: int = 2**16
) -> Optional[bool]:
    """Invertibility search in Hom(m, n) over a finite field.

    Returns True/False when decided, None when the number of candidates
    p^dim Hom exceeds search_bound or the field is infinite.

    With b_0, ..., b_{k-1} the basis of hom_space(m, n), the candidate for
    idx = 1, ..., p^k - 1 is sum_j c_j b_j, where c_j is the j-th base-p
    digit of idx (c_0 the lowest).  Witnesses come first: at most
    min(_WITNESS_TRIES, p^k - 1) candidates at indices drawn by a
    ``random.Random`` of fixed seed, and the first invertible one decides
    True.  A random element of a Hom space that holds an isomorphism is
    invertible with a probability bounded below by the Schwartz-Zippel
    lemma, so isomorphic pairs are mostly decided after a few tests.  Then
    the exhaustive search runs over every idx in order, so each answer is
    the same as without the witnesses: True exactly when some candidate is
    invertible.

    The exhaustive candidate is kept as a flat list of ints mod p and
    updated in place: from idx to idx + 1 every digit that changes goes up
    by 1 mod p (the low digits wrap from p-1 to 0, the carry digit grows),
    so the nonzero entries of b_j are added once for each changed digit j,
    about p/(p-1) additions of a basis map per candidate.  Each fibre
    block is then tested by elimination mod p, stopping at the first
    singular one.
    """
    if m.dims != n.dims:
        return False
    if m.is_zero():
        return True
    f = m.algebra.field
    basis = hom_space(m, n)
    if len(basis) == 0:
        return False
    if f.is_rational or f.p ** len(basis) > search_bound:
        return None
    p = f.p
    # a map is one row-major int list over its fibres, block (offset, d)
    # for each nonzero fibre of dim d; a basis map keeps its nonzero entries
    blocks = []
    size = 0
    for d in m.dims:
        if d:
            blocks.append((size, d))
            size += d * d
    steps = []
    for b in basis:
        flat = [e for mat in b.mats for row in mat.data for e in row]
        steps.append([(i, e) for i, e in enumerate(flat) if e])
    count = p ** len(basis)

    def invertible(cand):
        return all(
            _invertible_mod_p([cand[s : s + d] for s in range(o, o + d * d, d)], p)
            for o, d in blocks
        )

    rng = random.Random(0)
    for _ in range(min(_WITNESS_TRIES, count - 1)):
        idx = rng.randrange(1, count)
        cand = [0] * size
        for step in steps:
            idx, c = divmod(idx, p)
            if c:
                for i, x in step:
                    cand[i] += c * x
        if invertible([x % p for x in cand]):
            return True
    cand = [0] * size
    digits = [0] * len(basis)
    for _ in range(1, count):
        j = 0
        while digits[j] == p - 1:
            digits[j] = 0
            for i, x in steps[j]:
                cand[i] = (cand[i] + x) % p
            j += 1
        digits[j] += 1
        for i, x in steps[j]:
            cand[i] = (cand[i] + x) % p
        if invertible(cand):
            return True
    return False


# -- resolutions and dimensions ---------------------------------------------


@dataclass
class PdResult:
    """Projective (or injective) dimension with cutoff semantics.

    kind is "finite", "at_least_cutoff", or "infinite_periodic"; the last
    carries a pair (a, b) with syzygy(a) isomorphic to syzygy(b), a < b,
    which proves the resolution never terminates.
    """

    kind: str
    value: Optional[int] = None
    witness: Optional[Tuple[int, int]] = None

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def le(self, n: int) -> bool:
        """Whether the dimension is known to be <= n."""
        return self.is_finite and self.value <= n

    def describe(self) -> str:
        if self.kind == "finite":
            return f"Finite({self.value})"
        if self.kind == "infinite_periodic":
            a, b = self.witness
            return f"AtLeastCutoff; periodic (Omega^{b} ~ Omega^{a})"
        return "AtLeastCutoff"

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.value is not None:
            out["value"] = self.value
        if self.witness is not None:
            out["witness"] = list(self.witness)
        return out


@dataclass
class ResolutionReport:
    """A minimal projective resolution, possibly truncated at the cutoff."""

    module: Module
    terms: List[Module]
    term_verts: List[List[int]]
    differentials: List[ModuleMap]  # d_k : terms[k] -> terms[k-1], k >= 1
    augmentation: Optional[ModuleMap]  # terms[0] -> a module equal to module
    status: PdResult


# Cell budget of the syzygy cover steps an algebra remembers (see
# _syzygy_step): the entries of the matrices they hold.  A step that would
# pass it clears the memo first; the answers never depend on the memo.
MAX_SYZYGY_MEMO_CELLS = 2**22


def _syzygy_step(m: Module) -> Tuple[Module, ModuleMap, List[int], Module, ModuleMap]:
    """(P, the cover P -> m, its vertices, the kernel, its inclusion) for a
    syzygy m, remembered on the algebra by the content of m: its dims and
    arrow entries, which decide the whole step.  A syzygy met again, in
    this resolution or another, is covered once; the step holds the first
    module of that content as the cover's target."""
    alg = m.algebra
    key = (m.dims, tuple([m.arrow_mats[a.id].data for a in alg.quiver.arrows]))
    step = alg._syzygy_steps.get(key)
    if step is None:
        proj, cover, verts = projective_cover(m)
        ker, incl = kernel_of(cover)
        step = (proj, cover, verts, ker, incl)
        held = (*m.arrow_mats.values(), *cover.mats, *ker.arrow_mats.values(), *incl.mats)
        cells = sum(x.rows * x.cols for x in held)
        if cells <= MAX_SYZYGY_MEMO_CELLS:
            if alg._syzygy_cells + cells > MAX_SYZYGY_MEMO_CELLS:
                alg._syzygy_steps.clear()
                alg._syzygy_cells = 0
            alg._syzygy_steps[key] = step
            alg._syzygy_cells += cells
    return step


class _Resolution:
    """The minimal resolution of one module, computed only as deep as asked.

    `steps` holds the steps computed so far; `_next` is the state of the
    cover loop, (Omega^k, its inclusion into P_{k-1}), or None once a
    syzygy is zero.  A step is appended only when it is complete, so an
    exception inside the loop leaves the resolution as it was.

    Omega^0 is a module equal to m, not m itself: the resolution is kept
    on m, and neither its state nor the augmentation onto Omega^0 holds m,
    so m is freed as soon as its last reference goes, with no cycle for
    the garbage collector.  The cover of Omega^0 is computed here and
    never remembered elsewhere; from Omega^1 on, a step's cover, kernel
    and inclusion come from `_syzygy_step` and may be shared with other
    resolutions over the algebra, and only the differential
    d_k = (inclusion of Omega^k) o cover is built here.  A periodic
    resolution can hold one syzygy object at several steps.
    """

    __slots__ = ("steps", "_next")

    def __init__(self, m: Module):
        self.steps: List[Tuple[Module, List[int], ModuleMap, Module]] = []
        twin = Module(m.algebra, m.dims, m.arrow_mats, check=False)
        self._next: Optional[Tuple[Module, Optional[ModuleMap]]] = (twin, None)

    def step(self, k: int):
        """Step k, extending the loop as needed; None past the last step."""
        while len(self.steps) <= k and self._next is not None:
            current, prev_incl = self._next
            if current.is_zero():
                self._next = None
                break
            if prev_incl is None:
                proj, cover, verts = projective_cover(current)
                ker, incl = kernel_of(cover)
                d = cover
            else:
                proj, cover, verts, ker, incl = _syzygy_step(current)
                d = prev_incl.compose(cover)
            self.steps.append((proj, verts, d, ker))
            self._next = (ker, incl)
        return self.steps[k] if k < len(self.steps) else None


def resolution_steps(m: Module) -> Iterator[Tuple[Module, List[int], ModuleMap, Module]]:
    """The minimal projective resolution of m, one term at a time.

    Yields (P_k, verts_k, d_k, Omega^{k+1}) for k = 0, 1, ...: the cover
    P_k of Omega^k with its summand vertices, the differential
    d_k : P_k -> P_{k-1} (the augmentation P_0 -> m when k = 0, onto a
    module equal to m), and the next syzygy.  Stops after the first zero
    syzygy, and at once for m = 0.

    Every call on the same module object reads one resolution, stored on
    that object and extended only when an iterator asks for a step past
    its end: a consumer that stops early leaves the rest uncomputed, a
    deeper consumer later extends it, and interleaved iterators see the
    same steps: the yielded modules are shared by all callers.  The
    resolution is remembered on the object m, not by its content, so m
    is never held by the algebra.  The cover step of each syzygy is
    remembered on the algebra by its content (see `_syzygy_step`), so the
    resolutions of two modules share their terms, kernels and covers from
    the first syzygy they have in common; their differentials stay their
    own.
    """
    res = getattr(m, "_resolution", None)
    if res is None:
        res = m._resolution = _Resolution(m)
    k = 0
    while True:
        step = res.step(k)
        if step is None:
            return
        yield step
        k += 1


def minimal_resolution(m: Module, cutoff: int) -> ResolutionReport:
    """Iterate projective covers and syzygies up to the cutoff.

    Status is Finite(n) when the n-th syzygy vanishes with n <= cutoff; a
    pair of isomorphic syzygies upgrades AtLeastCutoff to a periodicity
    proof of infinite projective dimension.  Syzygies are compared only
    over GF(p): over Q the search never answers True.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if m.is_zero():
        return ResolutionReport(m, [], [], [], None, PdResult("finite", 0))
    terms: List[Module] = []
    term_verts: List[List[int]] = []
    diffs: List[ModuleMap] = []  # d_0 (the augmentation), d_1, ...
    syzygies: List[Module] = [m]  # Omega^0, Omega^1, ...
    status = PdResult("at_least_cutoff")
    for k, (proj, verts, d, ker) in zip(range(cutoff + 1), resolution_steps(m)):
        terms.append(proj)
        term_verts.append(verts)
        diffs.append(d)
        if ker.is_zero():
            status = PdResult("finite", k)
            break
        if m.algebra.field.is_rational:
            continue  # the search answers only None or False over Q
        j = next(
            (j for j, old in enumerate(syzygies) if modules_isomorphic(old, ker)),
            None,
        )
        if j is not None:
            status = PdResult("infinite_periodic", None, (j, k + 1))
            break
        syzygies.append(ker)
    return ResolutionReport(m, terms, term_verts, diffs[1:], diffs[0], status)


def proj_dim(m: Module, cutoff: int) -> PdResult:
    return minimal_resolution(m, cutoff).status


def inj_dim(m: Module, cutoff: int) -> PdResult:
    """Injective dimension, via the projective dimension of the dual over A^op."""
    return proj_dim(m.algebra.dual_module(m), cutoff)
