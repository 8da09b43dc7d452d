"""Derived invariants of perfect complexes: Hom-support, the diameter
h(x, y), hom^p membership, amplitude, and homological-finiteness probes.

For a perfect complex x and any bounded complex y, the degree-n maps
x -> shift(y, n) in the derived category are the n-th cohomology of the
Hom complex, and the support of that cohomology is finite.  All values
here are exact dimensions, never samples.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import List, Mapping, Optional

from .linalg import Matrix, kernel_basis
from .modules import (
    Module,
    proj_dim,
    projsum_module,
    quotient_module,
    radical_basis,
    resolution_steps,
    submodule_closure,
)
from .complexes import (
    ChainMap,
    Complex,
    HomComplex,
    cone,
    direct_sum,
    projsum_complex,
    shift,
)


class ResolutionCutoffError(ValueError):
    """A module failed to resolve within the requested cutoff."""


@dataclass(frozen=True)
class HomSupport:
    """Nonzero values of degree n -> dim Hom(x, shift(y, n))."""

    dims: Mapping[int, int]

    @property
    def is_empty(self) -> bool:
        return not self.dims

    @property
    def min(self) -> Optional[int]:
        return min(self.dims) if self.dims else None

    @property
    def max(self) -> Optional[int]:
        return max(self.dims) if self.dims else None

    def to_json(self) -> dict:
        return {str(n): d for n, d in sorted(self.dims.items())}


def resolution_complex(m: Module, length: int) -> Complex:
    """The first `length` steps of the minimal resolution of m, read from
    `resolution_steps(m)`, as a perfect complex in degrees -length+1..0.

    P_k goes to degree -k with its summand vertices as descriptor and d_k
    as differential; d_0, the augmentation, is not a differential of the
    complex.  The complex stops with the resolution when that is shorter.
    """
    terms, diffs, pv = {}, {}, {}
    for k, (proj, verts, d, _) in zip(range(length), resolution_steps(m)):
        terms[-k] = proj
        pv[-k] = verts
        if k > 0:
            diffs[-k] = d
    return Complex(m.algebra, terms, diffs, proj_verts=pv)


def resolve_to_perfect(m: Module, cutoff: int) -> Complex:
    """The minimal resolution of m as a perfect complex in degrees -n..0.

    Quasi-isomorphic to m placed in degree 0.  Raises ResolutionCutoffError
    ("pd at least cutoff") when the resolution does not terminate.
    """
    status = proj_dim(m, cutoff)
    if not status.is_finite:
        raise ResolutionCutoffError("pd at least cutoff")
    return resolution_complex(m, status.value + 1)


def algebra_complex(algebra, degree: int = 0) -> Complex:
    """The free module of rank one as a stalk complex."""
    return projsum_complex(algebra, tuple(range(algebra.num_vertices)), degree)


def hom_support(x: Complex, y: Complex) -> HomSupport:
    """Degrees n with Hom(x, shift(y, n)) nonzero, with dimensions.

    The answer is remembered on x per target object y, which is held by a
    weak reference: the entry goes when y does, and is only read for the
    very object it was computed for.  Its dims are a read-only mapping.
    """
    memo = getattr(x, "_hom_supports", None)
    if memo is None:
        memo = x._hom_supports = {}
    key = id(y)
    hit = memo.get(key)
    if hit is not None and hit[0]() is y:
        return hit[1]
    s = HomSupport(MappingProxyType(HomComplex(x, y).cohomology_dims()))
    memo[key] = (weakref.ref(y, _forget(x, key)), s)
    return s


def _forget(x: Complex, key: int):
    """Weak-reference callback dropping the entry `key` of the memo on x
    when its target dies, unless the entry has since been replaced.  It
    holds x weakly too, so a memo is never kept alive by its own entries."""
    xref = weakref.ref(x)

    def drop(ref):
        memo = getattr(xref(), "_hom_supports", {})
        if memo.get(key, (None,))[0] is ref:
            del memo[key]

    return drop


def _diameter(s: HomSupport) -> int:
    return 0 if s.is_empty else s.max - s.min + 1


def _reach(s: HomSupport) -> int:
    return max((abs(n) for n in s.dims), default=0)


def h_value(x: Complex, y: Complex) -> int:
    """Diameter of the Hom-support: 0 when empty, else max - min + 1.

    This is the least n such that any two support degrees i, j satisfy
    |i - j| < n.
    """
    return _diameter(hom_support(x, y))


def in_hom_p(x: Complex, y: Complex, p: int) -> bool:
    return h_value(x, y) <= p


def amplitude(x: Complex) -> int:
    """Largest |n| with Hom(x, shift(x, n)) nonzero; 0 for empty support."""
    return _reach(hom_support(x, x))


def invariants_report(x: Complex, y: Optional[Complex] = None) -> dict:
    """JSON-ready summary {"support": .., "h": .., "amplitude": ..}.

    The support and h are taken against y, or against x itself when y is
    None, in which case the amplitude reads the same remembered support.
    """
    s = hom_support(x, y if y is not None else x)
    return {"support": s.to_json(), "h": _diameter(s), "amplitude": amplitude(x)}


# -- seeded samplers ---------------------------------------------------------


def random_scalar(fld, rng: random.Random):
    if fld.p is not None:
        return rng.randrange(fld.p)
    return Fraction(rng.randint(-3, 3))


def random_nonzero_scalar(fld, rng: random.Random):
    if fld.p is not None:
        return rng.randrange(1, fld.p)
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))


def random_module(algebra, rng: random.Random, max_gens: int = 2) -> Module:
    """A random quotient of a small projective sum by a radical submodule."""
    nv = algebra.num_vertices
    verts = tuple(rng.randrange(nv) for _ in range(rng.randint(1, max_gens)))
    p = projsum_module(algebra, verts)
    rad = radical_basis(p)
    gens = []
    for v in range(nv):
        cols = []
        for c in range(rad[v].cols):
            if rng.random() < 0.5:
                vec = [
                    algebra.field.mul(random_nonzero_scalar(algebra.field, rng), x)
                    for x in rad[v].col(c)
                ]
                cols.append(vec)
        if cols:
            gens.append(
                Matrix(
                    algebra.field,
                    p.dims[v],
                    len(cols),
                    [[col[r] for col in cols] for r in range(p.dims[v])],
                )
            )
        else:
            gens.append(Matrix.zeros(algebra.field, p.dims[v], 0))
    sub = submodule_closure(p, gens)
    q, _ = quotient_module(p, sub)
    return q


def random_chain_map(x: Complex, y: Complex, rng: random.Random) -> ChainMap:
    """A random field-linear combination of the chain-map basis of
    `chain_map_basis(x, y)` (may be zero), one scalar per basis map in
    order, taken in the coordinates of the Hom complex and decoded once."""
    hc = HomComplex(x, y)
    kb = kernel_basis(hc.diff_matrix(0))
    coeffs = [random_scalar(x.algebra.field, rng) for _ in range(kb.cols)]
    return ChainMap(hc.x, y, hc.decode(0, kb.apply(coeffs)))


def random_perfect_complex(algebra, rng: random.Random) -> Complex:
    """A seeded random perfect complex with spread-out support.

    One to three pieces, each the resolution of a random finite-dimensional
    module within cutoff 8 (falling back to a projective when a sample has
    no such resolution), shifted by -3..3; with probability one half, two
    pieces are glued by the cone of a random chain map instead of a plain
    direct sum.
    """
    pieces: List[Complex] = []
    for _ in range(rng.randint(1, 3)):
        base = None
        for _attempt in range(4):
            m = random_module(algebra, rng)
            if m.is_zero():
                continue
            try:
                base = resolve_to_perfect(m, 8)
                break
            except ResolutionCutoffError:
                continue
        if base is None:
            base = projsum_complex(algebra, (rng.randrange(algebra.num_vertices),))
        pieces.append(shift(base, rng.randint(-3, 3)))
    while len(pieces) > 1 and rng.random() < 0.5:
        a = pieces.pop(rng.randrange(len(pieces)))
        b = pieces.pop(rng.randrange(len(pieces)))
        f = random_chain_map(shift(b, -1), a, rng)
        pieces.append(cone(f))
    if len(pieces) == 1:
        return pieces[0]
    return direct_sum(algebra, pieces)
