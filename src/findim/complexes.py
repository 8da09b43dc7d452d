"""Bounded cochain complexes of modules: shifts, cones, truncations,
cohomology, Hom complexes, and the null-homotopy decision procedure.

Sign conventions, fixed once for bit-exact tests:

* d_{shift(X,k)} = (-1)^k d_X, with shift(X,k)^n = X^{n+k};
* cone(f: X -> Y)^n = Y^n + X^{n+1} with differential [[d_Y, f], [0, -d_X]];
* the Hom complex differential is delta(g) = d_Y o g - (-1)^n g o d_X.

A complex may carry "projective descriptors": per degree, the tuple of
vertices (i1, ..., ik) exhibiting the term as the standard projective sum
Ae_{i1} + ... + Ae_{ik}.  All constructors propagate descriptors, and the
Hom machinery uses them to work in generator-image coordinates.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import (
    Matrix,
    _product,
    column_space_basis,
    kernel_basis,
    rank,
    solve,
    solve_matrix,
)
from .modules import (
    Module,
    ModuleMap,
    _Memoized,
    direct_sum_modules,
    generator_positions,
    kernel_of,
    map_from_generator_images,
    projective_cover,
    projsum_module,
    projsum_offsets,
    quotient_module,
    yoneda_coordinates,
    yoneda_dim,
)


class NotPerfectError(ValueError):
    """A complex was required to consist of projective terms but does not."""


class Complex(_Memoized):
    """Bounded cochain complex of modules with degree +1 differentials.

    Complexes, like modules, are not edited after construction: their
    terms, differentials and descriptors are shared by the complexes built
    from them, and answers computed from a complex are remembered on it.
    `cohomology(x, n)` remembers its module per degree on x,
    `cohomology_dims(x)` its dimensions, and
    `invariants.hom_support(x, y)` remembers the Hom-support on the source
    x per target object y, holding y only weakly.
    """

    def __init__(
        self,
        algebra,
        terms: Dict[int, Module],
        diffs: Dict[int, ModuleMap],
        proj_verts: Optional[Dict[int, Tuple[int, ...]]] = None,
        check: bool = True,
    ):
        self.algebra = algebra
        self.terms = {n: m for n, m in terms.items() if not m.is_zero()}
        self.diffs = {
            n: d for n, d in diffs.items() if n in self.terms and n + 1 in self.terms
        }
        self.proj_verts = (
            {n: tuple(v) for n, v in proj_verts.items() if n in self.terms}
            if proj_verts is not None
            else None
        )
        if check:
            self._validate()

    def _validate(self):
        for n, d in self.diffs.items():
            if d.source.dims != self.term(n).dims or d.target.dims != self.term(n + 1).dims:
                raise ValueError(f"differential at degree {n} has wrong endpoints")
        for n in self.diffs:
            if n + 1 in self.diffs:
                if not self.diffs[n + 1].compose(self.diffs[n]).is_zero():
                    raise ValueError(f"d o d != 0 at degree {n}")
        if self.proj_verts is not None:
            for n in self.terms:
                if n not in self.proj_verts:
                    raise ValueError(f"missing projective descriptor at degree {n}")

    # -- access ------------------------------------------------------------

    def term(self, n: int) -> Module:
        return self.terms.get(n) or self.algebra.zero_module()

    def diff(self, n: int) -> ModuleMap:
        d = self.diffs.get(n)
        if d is None:
            d = ModuleMap.zero(self.term(n), self.term(n + 1))
        return d

    @property
    def support(self) -> List[int]:
        return sorted(self.terms)

    @property
    def is_zero_complex(self) -> bool:
        return not self.terms

    @property
    def min_deg(self) -> Optional[int]:
        return min(self.terms) if self.terms else None

    @property
    def max_deg(self) -> Optional[int]:
        return max(self.terms) if self.terms else None

    def __eq__(self, other):
        if not isinstance(other, Complex) or self.algebra is not other.algebra:
            return False
        if set(self.terms) != set(other.terms):
            return False
        for n in self.terms:
            if self.terms[n] != other.terms[n]:
                return False
            a, b = self.diffs.get(n), other.diffs.get(n)
            if a is None and b is None:
                continue
            if a is None or b is None:
                # a missing differential is zero
                if not (b if a is None else a).is_zero():
                    return False
            elif a != b:
                return False
        return True

    def __repr__(self):
        if self.is_zero_complex:
            return "Complex(0)"
        dims = {n: self.terms[n].total_dim for n in self.support}
        return f"Complex({dims})"


class ChainMap:
    """Degreewise module maps commuting with the differentials."""

    def __init__(
        self,
        source: Complex,
        target: Complex,
        comps: Dict[int, ModuleMap],
        check: bool = True,
    ):
        self.source = source
        self.target = target
        self.comps = {
            n: f
            for n, f in comps.items()
            if n in source.terms and n in target.terms and not f.is_zero()
        }
        if check and not self.commutes():
            raise ValueError("components do not commute with the differentials")

    def comp(self, n: int) -> ModuleMap:
        f = self.comps.get(n)
        if f is None:
            f = ModuleMap.zero(self.source.term(n), self.target.term(n))
        return f

    def commutes(self) -> bool:
        """Whether d_Y o f^n = f^{n+1} o d_X in every degree.

        Both sides are compared vertex by vertex as matrices.  A side with
        a zero factor is the zero matrix; a factor whose matrix is the
        identity, recognised by its entries, leaves the other factor as
        the product, so d o id and id o d cost no multiplication, and two
        sides that are then one matrix object need no comparison.
        """
        src, tgt = self.source, self.target
        for n in set(self.comps) | {n - 1 for n in self.comps}:
            f, g = self.comps.get(n), self.comps.get(n + 1)
            dy, dx = tgt.diffs.get(n), src.diffs.get(n)
            for v in range(src.algebra.num_vertices):
                lhs = None if f is None or dy is None else _product(dy.mats[v], f.mats[v])
                rhs = None if g is None or dx is None else _product(g.mats[v], dx.mats[v])
                if lhs is None:
                    if rhs is not None and not rhs.is_zero():
                        return False
                elif rhs is None:
                    if not lhs.is_zero():
                        return False
                elif lhs is not rhs and lhs != rhs:
                    return False
        return True

    @classmethod
    def zero(cls, source: Complex, target: Complex) -> "ChainMap":
        return cls(source, target, {}, check=False)

    @classmethod
    def identity(cls, x: Complex) -> "ChainMap":
        return cls(x, x, {n: ModuleMap.identity(x.terms[n]) for n in x.terms}, check=False)

    def compose(self, first: "ChainMap") -> "ChainMap":
        """self after first, over the degrees where both have a component."""
        return ChainMap(
            first.source,
            self.target,
            {n: self.comps[n].compose(f) for n, f in first.comps.items() if n in self.comps},
            check=False,
        )

    def __add__(self, other: "ChainMap") -> "ChainMap":
        degs = set(self.comps) | set(other.comps)
        return ChainMap(
            self.source,
            self.target,
            {n: self.comp(n) + other.comp(n) for n in degs},
            check=False,
        )

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        degs = set(self.comps) | set(other.comps)
        return ChainMap(
            self.source,
            self.target,
            {n: self.comp(n) - other.comp(n) for n in degs},
            check=False,
        )

    def scale(self, c) -> "ChainMap":
        return ChainMap(
            self.source,
            self.target,
            {n: f.scale(c) for n, f in self.comps.items()},
            check=False,
        )

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.comps.values())

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return False
        degs = set(self.comps) | set(other.comps)
        return all((self.comp(n) - other.comp(n)).is_zero() for n in degs)


class Homotopy:
    """Degree -1 maps h^n : X^n -> Y^{n-1} witnessing a null-homotopy."""

    def __init__(self, source: Complex, target: Complex, maps: Dict[int, ModuleMap]):
        self.source = source
        self.target = target
        self.maps = dict(maps)

    def map_at(self, n: int) -> ModuleMap:
        h = self.maps.get(n)
        if h is None:
            h = ModuleMap.zero(self.source.term(n), self.target.term(n - 1))
        return h

    def certifies(self, f: ChainMap) -> bool:
        """Whether f = d_Y o h + h o d_X degreewise."""
        degs = set(self.source.terms) | set(self.target.terms) | set(f.comps)
        for n in degs:
            built = self.target.diff(n - 1).compose(self.map_at(n)) + self.map_at(
                n + 1
            ).compose(self.source.diff(n))
            if not (f.comp(n) - built).is_zero():
                return False
        return True


# -- constructors ------------------------------------------------------------


def stalk_complex(m: Module, degree: int = 0, verts: Optional[Sequence[int]] = None) -> Complex:
    pv = {degree: tuple(verts)} if verts is not None else None
    return Complex(m.algebra, {degree: m}, {}, proj_verts=pv, check=False)


def projsum_complex(algebra, verts: Sequence[int], degree: int = 0) -> Complex:
    return stalk_complex(projsum_module(algebra, verts), degree, verts=tuple(verts))


def shift(x: Complex, k: int) -> Complex:
    """shift(x, k)^n = x^{n+k} with differentials scaled by (-1)^k."""
    if k == 0:
        return x
    sign = 1 if k % 2 == 0 else -1
    terms = {n - k: m for n, m in x.terms.items()}
    diffs = {}
    for n, d in x.diffs.items():
        diffs[n - k] = d if sign == 1 else d.scale(-1)
    pv = {n - k: v for n, v in x.proj_verts.items()} if x.proj_verts is not None else None
    return Complex(x.algebra, terms, diffs, proj_verts=pv, check=False)


def direct_sum(algebra, xs: Sequence[Complex]) -> Complex:
    """Degreewise direct sum; the empty sum is the zero complex.

    When every summand carries descriptors, the term in degree n is the
    standard projective sum of the concatenated descriptors, taken from
    `projsum_module`.  Every differential matrix is block diagonal in the
    summands: each row of a summand's block is set between zeros, and a
    summand with no differential in that degree contributes zero rows.
    """
    for x in xs:
        if x.algebra is not algebra:
            raise ValueError("complexes over different algebras")
    fld = algebra.field
    zero = fld.zero()
    degs = sorted({n for x in xs for n in x.terms})
    terms: Dict[int, Module] = {}
    pv = None
    if all(x.proj_verts is not None for x in xs):
        pv = {n: sum((tuple(x.proj_verts.get(n, ())) for x in xs), ()) for n in degs}
        for n in degs:
            terms[n] = projsum_module(algebra, pv[n])
    else:
        for n in degs:
            terms[n] = direct_sum_modules(algebra, [x.term(n) for x in xs])
    diffs: Dict[int, ModuleMap] = {}
    for n in degs:
        if n + 1 not in terms:
            continue
        src, tgt = terms[n], terms[n + 1]
        parts = [(x.diffs.get(n), x.term(n).dims, x.term(n + 1).dims) for x in xs]
        mats = []
        for v, width in enumerate(src.dims):
            data = []
            c0 = 0
            for d, sdims, tdims in parts:
                if d is None:
                    data.extend(((zero,) * width,) * tdims[v])
                else:
                    left, right = (zero,) * c0, (zero,) * (width - c0 - sdims[v])
                    data.extend([left + row + right for row in d.mats[v].data])
                c0 += sdims[v]
            mats.append(Matrix._of(fld, tgt.dims[v], width, tuple(data)))
        diffs[n] = ModuleMap(src, tgt, mats, check=False)
    return Complex(algebra, terms, diffs, proj_verts=pv, check=False)


def cone(f: ChainMap) -> Complex:
    """The mapping cone of f: X -> Y.

    cone^n = Y^n + X^{n+1}, differential [[d_Y, f^{n+1}], [0, -d_X^{n+1}]]:
    the direct sum of Y and shift(X, 1), with f^{n+1} set in the
    upper-right block of its differential at n.
    """
    y = f.target
    c = direct_sum(y.algebra, [y, shift(f.source, 1)])
    for n, fn in f.comps.items():
        d, left = c.diffs[n - 1], y.term(n - 1).dims
        blocks = zip(d.mats, fn.mats, left)
        mats = [m.with_block(range(b.rows), range(l, m.cols), b) for m, b, l in blocks]
        c.diffs[n - 1] = ModuleMap(d.source, d.target, mats, check=False)
    return c


def stupid_truncate(x: Complex, lo: Optional[int] = None, hi: Optional[int] = None) -> Complex:
    """The brutal truncation of x to the degrees lo..hi, cut in one pass;
    a bound left None leaves that end open.  The kept terms keep their
    differentials and descriptors, the very objects of x."""
    terms = {
        n: m for n, m in x.terms.items() if (lo is None or lo <= n) and (hi is None or n <= hi)
    }
    return Complex(x.algebra, terms, x.diffs, proj_verts=x.proj_verts, check=False)


# -- cohomology --------------------------------------------------------------


def cohomology_dims(x: Complex) -> Dict[int, int]:
    """Total dimension of H^n for every degree: dim x^n - rank d^n -
    rank d^{n-1}, each rank summed over the vertices and computed once.

    The answer is remembered on x; each call returns a new dict.
    """
    memo = getattr(x, "_cohomology_dims", None)
    if memo is None:
        ranks = {n: sum(rank(m) for m in d.mats) for n, d in x.diffs.items()}
        memo = {}
        for n in x.support:
            total = x.terms[n].total_dim - ranks.get(n, 0) - ranks.get(n - 1, 0)
            if total:
                memo[n] = total
        x._cohomology_dims = memo
    return dict(memo)


def is_acyclic(x: Complex) -> bool:
    return not cohomology_dims(x)


def _basis_of(d: ModuleMap, v: int, fn) -> Matrix:
    """fn(d.mats[v]), remembered on d.

    The windows of one resolution share their differential objects, so a
    basis is computed once per resolution.
    """
    cache = getattr(d, "_bases", None)
    if cache is None:
        cache = d._bases = {}
    basis = cache.get((fn, v))
    if basis is None:
        basis = cache[(fn, v)] = fn(d.mats[v])
    return basis


def _contains(bound: Matrix, image: Matrix) -> bool:
    """Whether the columns of ``image`` lie in the span of the independent
    columns of ``bound``: rank [bound | image] = rank bound."""
    return rank(Matrix.hstack(bound.field, [bound, image], rows=bound.rows)) == bound.cols


def induced_cohomology_zero(f: ChainMap) -> bool:
    """Whether a chain map induces zero on all cohomology (a ghost map).

    In each degree n and at each vertex, the image under f^n of the cycles
    Z = ker d_X^n must lie in the boundaries B = im d_Y^{n-1}, that is
    rank [B | f^n Z] = rank B.  A zero component passes at once, and an
    identity component, recognised by its entries, maps Z to itself.

    For an identity component the test reads only d_X^n and d_Y^{n-1}:
    whether ker d_X^n lies in im d_Y^{n-1}, for the windows of one
    resolution its exactness at n, the same in every window.  So that
    verdict is remembered on d_Y^{n-1}, one per vertex, beside its bases
    and with the kernel basis it was read from: it is reused only beside
    that very basis, that is, for the same d_X^n.
    """
    x, y = f.source, f.target
    for n in sorted(f.comps):
        fn = f.comps[n]
        dx, dy = x.diffs.get(n), y.diffs.get(n - 1)
        for v in range(x.algebra.num_vertices):
            fv = fn.mats[v]
            # with no differential out of degree n, every vector is a cycle
            cycles = None if dx is None else _basis_of(dx, v, kernel_basis)
            image = fv if cycles is None else _product(fv, cycles)
            if image.cols == 0:
                continue
            if dy is None:
                if not image.is_zero():
                    return False
                continue
            bound = _basis_of(dy, v, column_space_basis)
            if image is not cycles:  # fv is no identity: test its image
                if not _contains(bound, image):
                    return False
                continue
            # the verdict, kept in the cache that holds the bases of dy
            key = (_contains, v)
            hit = dy._bases.get(key)
            if hit is None or hit[0] is not cycles:
                hit = dy._bases[key] = (cycles, _contains(bound, cycles))
            if not hit[1]:
                return False
    return True


def cohomology(x: Complex, n: int) -> Module:
    """H^n(x) = ker d^n / im d^{n-1} as a representation: the quotient of
    the cycle module by the boundaries, written in its coordinates.

    The module is remembered on x per degree, so every caller gets the
    same object and shares its lazy resolution; it must not be mutated.
    """
    memo = getattr(x, "_cohomology", None)
    if memo is None:
        memo = x._cohomology = {}
    elif n in memo:
        return memo[n]
    cycles, incl = kernel_of(x.diff(n))
    prev = x.diff(n - 1)
    bounds = []
    for v in range(x.algebra.num_vertices):
        b = solve_matrix(incl.mats[v], column_space_basis(prev.mats[v]))
        if b is None:
            raise RuntimeError("boundaries are not cycles; d o d != 0")
        bounds.append(b)
    h = memo[n] = quotient_module(cycles, bounds)[0]
    return h


# -- recognizing complexes of projectives ------------------------------------


def standardize_perfect(x: Complex) -> Tuple[Complex, ChainMap]:
    """Exhibit every term as a standard projective sum.

    Returns (x_std, iso) where x_std carries projective descriptors and iso
    is a degreewise isomorphism x_std -> x.  Raises NotPerfectError when a
    term is not projective.
    """
    if x.proj_verts is not None:
        return x, ChainMap.identity(x)
    alg = x.algebra
    fld = alg.field
    isos: Dict[int, ModuleMap] = {}
    verts: Dict[int, Tuple[int, ...]] = {}
    for n, m in x.terms.items():
        p, cover, vlist = projective_cover(m)
        if p.dims != m.dims or not cover.is_isomorphism():
            raise NotPerfectError(f"term in degree {n} is not projective")
        isos[n] = cover
        verts[n] = tuple(vlist)
    terms = {n: isos[n].source for n in x.terms}
    diffs: Dict[int, ModuleMap] = {}
    for n in x.diffs:
        inv_mats = [
            solve_matrix(isos[n + 1].mats[v], Matrix.identity(fld, isos[n + 1].mats[v].rows))
            for v in range(alg.num_vertices)
        ]
        inv = ModuleMap(x.term(n + 1), terms[n + 1], inv_mats, check=False)
        diffs[n] = inv.compose(x.diff(n).compose(isos[n]))
    std = Complex(alg, terms, diffs, proj_verts=verts, check=False)
    iso = ChainMap(std, x, isos, check=False)
    return std, iso


# -- Hom complexes -----------------------------------------------------------


class HomComplex:
    """The Hom complex of a perfect complex x into any complex y.

    Degree n is the sum over k of Hom_A(x^k, y^{k+n}), coordinatized by
    generator images of the projective sums x^k: with x^k = sum_g Ae_{i_g},
    block k holds, summand by summand, the image of the generator e_{i_g}
    in the fiber of y^{k+n} at i_g.  H^n has the dimension of the degree-n
    morphisms x -> shift(y, n) in the homotopy category.

    The differential delta(g) = d_y o g - (-1)^n g o d_x sends column block
    k of degree n to two row blocks of degree n+1:

    * row block k (post-composition): the block diagonal of
      d_y^{k+n}.mats[i_g], one block per summand g of x^k;
    * row block k-1 (pre-composition): at summand h of x^{k-1} (vertex j)
      and summand g of x^k (vertex i), -(-1)^n sum_path c_path
      y^{k+n}.act_path(path), over the basis paths i -> j, where c_path is
      the coordinate of path.e_{i_g} in d_x^{k-1}(e_{j_h}).
    """

    def __init__(self, x: Complex, y: Complex):
        if x.proj_verts is None:
            x, _ = standardize_perfect(x)
        self.x = x
        self.y = y
        self.algebra = x.algebra
        self.field = x.algebra.field
        self._blocks: Dict[int, List[Tuple[int, int]]] = {}  # n -> [(k, dim)]
        if x.terms and y.terms:
            lo = y.min_deg - x.max_deg
            hi = y.max_deg - x.min_deg
        else:
            lo, hi = 0, -1
        self._lo, self._hi = lo, hi
        for n in range(lo, hi + 1):
            blocks = []
            for k in x.support:
                if k + n in y.terms:
                    d = yoneda_dim(self.algebra, x.proj_verts[k], y.term(k + n))
                    blocks.append((k, d))
            self._blocks[n] = blocks
        # (degree of y, basis index) -> rows of y^degree.act_path(path)
        self._act_cache: Dict[Tuple[int, int], Tuple[Tuple, ...]] = {}

    def dim(self, n: int) -> int:
        return sum(d for _, d in self._blocks.get(n, []))

    # coordinates <-> collections of per-degree module maps

    def decode(self, n: int, coords: Sequence) -> Dict[int, ModuleMap]:
        out: Dict[int, ModuleMap] = {}
        pos = 0
        for k, d in self._blocks.get(n, []):
            out[k] = self.decode_block(n, k, coords[pos : pos + d])
            pos += d
        return out

    def encode(self, n: int, maps: Dict[int, ModuleMap]) -> List:
        coords: List = []
        for k, d in self._blocks.get(n, []):
            f = maps.get(k)
            if f is None:
                coords.extend([self.field.zero()] * d)
            else:
                coords.extend(
                    yoneda_coordinates(self.algebra, self.x.proj_verts[k], f)
                )
        return coords

    def _act(self, deg: int, bidx: int) -> Tuple[Tuple, ...]:
        key = (deg, bidx)
        rows = self._act_cache.get(key)
        if rows is None:
            rows = self.y.term(deg).act_path(self.algebra.basis_path(bidx)).data
            self._act_cache[key] = rows
        return rows

    def diff_matrix(self, n: int) -> Matrix:
        """Matrix of delta(g) = d_y o g - (-1)^n g o d_x from degree n.

        Built block by block with the two formulas of the class docstring:
        the post-composition block of column block k is the block diagonal
        of d_y^{k+n}.mats[i_g], and its pre-composition block at (h, g) is
        -(-1)^n sum_path c_path y^{k+n}.act_path(path).
        """
        alg = self.algebra
        p = self.field.p
        zero = self.field.zero()
        sign = -1 if n % 2 == 0 else 1  # -(-1)^n
        row_off: Dict[int, int] = {}
        rows = 0
        for k, d in self._blocks.get(n + 1, []):
            row_off[k] = rows
            rows += d
        cols = self.dim(n)
        data = [[zero] * cols for _ in range(rows)]
        col = 0
        for k, d in self._blocks.get(n, []):
            verts = self.x.proj_verts[k]
            dims = self.y.term(k + n).dims
            if k in row_off:
                # post-composition: block diagonal of d_y^{k+n}.mats[i_g]
                mats = self.y.diff(k + n).mats
                r0, c0 = row_off[k], col
                for i in verts:
                    for r, drow in enumerate(mats[i].data, r0):
                        out = data[r]
                        for c, e in enumerate(drow, c0):
                            if e:
                                out[c] += e
                    r0 += len(mats[i].data)
                    c0 += dims[i]
            if k - 1 in row_off:
                # pre-composition: sum_path c_path act_path(path) per (h, g)
                dx = self.x.diff(k - 1).mats
                goff = projsum_offsets(alg, verts)
                r0 = row_off[k - 1]
                for j, gen in generator_positions(alg, self.x.proj_verts[k - 1]):
                    dcol = [row[gen] for row in dx[j].data]
                    c0 = col
                    for g, i in enumerate(verts):
                        base = goff[g][j]
                        for pos, bidx in enumerate(alg.basis_by_pair.get((i, j), ())):
                            coeff = dcol[base + pos]
                            if not coeff:
                                continue
                            coeff *= sign
                            for r, arow in enumerate(self._act(k + n, bidx), r0):
                                out = data[r]
                                for c, e in enumerate(arow, c0):
                                    if e:
                                        out[c] += coeff * e
                        c0 += dims[i]
                    r0 += dims[j]
            col += d
        for r, row in enumerate(data):  # one row at a time, to keep one copy
            data[r] = tuple(row) if p is None else tuple([e % p for e in row])
        return Matrix._of(self.field, rows, cols, tuple(data))

    def decode_block(self, n: int, k: int, coords: Sequence) -> ModuleMap:
        verts = self.x.proj_verts[k]
        tgt = self.y.term(k + n)
        images = []
        pos = 0
        for i in verts:
            images.append(list(coords[pos : pos + tgt.dims[i]]))
            pos += tgt.dims[i]
        return map_from_generator_images(self.algebra, verts, tgt, images)

    def cohomology_dims(self) -> Dict[int, int]:
        """dim H^n = dim - rank delta^n - rank delta^{n-1} for every degree,
        carrying the rank of delta^{n-1} forward from the degree before.
        Below the lowest degree the Hom complex is zero."""
        out = {}
        rprev = 0
        for n in range(self._lo, self._hi + 1):
            dn = self.diff_matrix(n)
            r = rank(dn)
            d = dn.cols - r - rprev
            if d:
                out[n] = d
            rprev = r
        return out


def chain_map_basis(x: Complex, y: Complex) -> List[ChainMap]:
    """Basis of the space of chain maps x -> y (degree-0 cycles of Hom)."""
    hc = HomComplex(x, y)
    xs = hc.x  # standardized
    kb = kernel_basis(hc.diff_matrix(0))
    out = []
    for c in range(kb.cols):
        comps = hc.decode(0, kb.col(c))
        out.append(ChainMap(xs, y, comps, check=False))
    return out


# -- null-homotopy -----------------------------------------------------------


def null_homotopy(f: ChainMap) -> Optional[Homotopy]:
    """Solve f = d_Y o h + h o d_X exactly; a witness or None.

    The homotopy h is a degree -1 element of the Hom complex with
    delta(h) = f.  Free variables are pinned to zero, so the witness is
    deterministic.  The source must carry projective descriptors.
    """
    x, y = f.source, f.target
    if x.proj_verts is None:
        raise NotPerfectError("null_homotopy needs a source of projectives")
    hc = HomComplex(x, y)
    sol = solve(hc.diff_matrix(-1), hc.encode(0, f.comps))
    if sol is None:
        return None
    maps = {k: g for k, g in hc.decode(-1, sol).items() if not g.is_zero()}
    h = Homotopy(x, y, maps)
    if not h.certifies(f):
        raise RuntimeError("homotopy solver produced an invalid witness")
    return h
