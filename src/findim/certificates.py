"""Small finitistic dimension estimation, generation-level certificates,
and the ghost-map oracle for projective dimension.

A ThickCertificate is a machine-checkable construction tree showing that a
complex can be assembled from shifted summands of the free module in a
bounded number of cone steps.  Every step stores the complex it produces,
so the verifier recomputes each construction bit-exactly and any tampering
is reported with the offending step index.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .algebras import BudgetExceededError
from .linalg import Matrix, solve_matrix
from .modules import (
    Module,
    ModuleMap,
    generator_positions,
    minimal_resolution,
    proj_dim,
    projsum_module,
    projsum_offsets,
    resolution_steps,
)
from .complexes import (
    ChainMap,
    Complex,
    Homotopy,
    cohomology,
    cohomology_dims,
    cone,
    direct_sum,
    induced_cohomology_zero,
    is_acyclic,
    null_homotopy,
    projsum_complex,
    shift,
    standardize_perfect,
    stalk_complex,
    stupid_truncate,
)


from .invariants import (
    ResolutionCutoffError,
    algebra_complex,
    random_perfect_complex,
    resolution_complex,
    resolve_to_perfect,
)


# -- module enumeration and finitistic dimension -----------------------------


def _dim_vectors(num_vertices: int, max_total: int) -> Iterator[Tuple[int, ...]]:
    rng = range(max_total + 1)
    for dims in itertools.product(rng, repeat=num_vertices):
        if sum(dims) <= max_total:
            yield dims


def enumerate_modules(
    algebra, max_total_dim: int, budget: int = 10**6
) -> Iterator[Module]:
    """Every representation with total dimension <= max_total_dim, exactly.

    Yields, in a fixed deterministic order, each tuple of arrow matrices
    over GF(p) satisfying the relations; no isomorphism deduplication.
    Raises BudgetExceededError when some dimension vector alone would
    require more than `budget` matrix-tuple candidates.
    """
    for dims in _dim_vectors(algebra.num_vertices, max_total_dim):
        _check_budget(algebra, dims, budget)
        yield from _modules_with_dims(algebra, dims)


def _check_budget(algebra, dims, budget) -> None:
    p = algebra.field.p
    if p is None:
        raise ValueError("module enumeration needs a finite field")
    entries = sum(dims[a.target] * dims[a.source] for a in algebra.quiver.arrows)
    if p**entries > budget:
        raise BudgetExceededError(
            f"dimension vector {list(dims)}: search space {p}^{entries} "
            f"= {p**entries} exceeds budget {budget}"
        )


def _modules_with_dims(algebra, dims) -> Iterator[Module]:
    arrows = algebra.quiver.arrows
    shapes = [(dims[a.target], dims[a.source]) for a in arrows]
    entries = sum(r * c for r, c in shapes)
    for flat in itertools.product(range(algebra.field.p), repeat=entries):
        mats = {}
        pos = 0
        for a, (r, c) in zip(arrows, shapes):
            mats[a.id] = Matrix(
                algebra.field, r, c, [list(flat[pos + i * c : pos + (i + 1) * c]) for i in range(r)]
            )
            pos += r * c
        try:
            yield Module(algebra, list(dims), mats, check=True)
        except ValueError:
            continue


def _budgeted_modules(
    algebra, max_total_dim: int, budget: int, skipped: List[List[int]]
) -> Iterator[Module]:
    """The modules of enumerate_modules, one by one, except that a dimension
    vector over the budget is appended to `skipped` and passed over."""
    for dims in _dim_vectors(algebra.num_vertices, max_total_dim):
        try:
            _check_budget(algebra, dims, budget)
        except BudgetExceededError:
            skipped.append(list(dims))
            continue
        yield from _modules_with_dims(algebra, dims)


@dataclass
class FinDimReport:
    """Result of maximizing finite projective dimensions over a module search."""

    field_desc: str
    max_total_dim: int
    cutoff: int
    best: int
    witness_dims: Optional[List[int]]
    witness_resolution: Optional[List[List[int]]]
    modules_seen: int
    excluded: int  # AtLeastCutoff: membership in the finite-pd class undetermined
    excluded_periodic: int  # of those, proven infinite by a periodicity witness
    exhaustive: bool
    skipped_dim_vectors: List[List[int]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "field": self.field_desc,
            "max_total_dim": self.max_total_dim,
            "cutoff": self.cutoff,
            "best": self.best,
            "witness_dims": self.witness_dims,
            "witness_resolution": self.witness_resolution,
            "modules_seen": self.modules_seen,
            "excluded": self.excluded,
            "excluded_periodic": self.excluded_periodic,
            "exhaustive": self.exhaustive,
            "skipped_dim_vectors": self.skipped_dim_vectors,
        }


def findim_estimate(
    algebra, max_total_dim: int, cutoff: int, budget: int = 10**6
) -> FinDimReport:
    """max{pd M : M enumerated, pd finite} — a certified lower bound for
    the supremum of finite projective dimensions, attained exactly when the
    true maximizer fits within the enumeration bound."""
    best = 0
    witness_dims: Optional[List[int]] = None
    witness_res: Optional[List[List[int]]] = None
    seen = 0
    excluded = 0
    excluded_periodic = 0
    skipped: List[List[int]] = []
    for m in _budgeted_modules(algebra, max_total_dim, budget, skipped):
        seen += 1
        res = minimal_resolution(m, cutoff)
        if res.status.is_finite:
            if witness_dims is None or res.status.value > best:
                best = res.status.value
                witness_dims = list(m.dims)
                witness_res = [list(t.dims) for t in res.terms]
        else:
            excluded += 1
            if res.status.kind == "infinite_periodic":
                excluded_periodic += 1
    return FinDimReport(
        field_desc=repr(algebra.field),
        max_total_dim=max_total_dim,
        cutoff=cutoff,
        best=best,
        witness_dims=witness_dims,
        witness_resolution=witness_res,
        modules_seen=seen,
        excluded=excluded,
        excluded_periodic=excluded_periodic,
        exhaustive=not skipped,
        skipped_dim_vectors=skipped,
    )


def finitistic_generator(algebra, d: int) -> Complex:
    """The complex A + shift(A, d): the free module in degrees 0 and -d.

    Its self-Hom support is {-d, 0, d}, so its amplitude is exactly d.
    """
    ax = algebra_complex(algebra)
    return direct_sum(algebra, [ax, shift(ax, d)])


THEOREM_ATTEMPTS_PER_SAMPLE = 40


def theorem_samples(
    algebra, d: int, count: int, cutoff: int, seed: int
) -> Iterator[Tuple[Complex, int]]:
    """Seeded random perfect complexes y for the main-theorem check, with
    the width of their cohomology (0 when acyclic).

    A draw is kept when its cohomology spans at most 3 degrees and every
    cohomology module has projective dimension <= d within the cutoff.
    Yields up to `count` pairs (y, width), and stops after
    count * THEOREM_ATTEMPTS_PER_SAMPLE draws.
    """
    rng = random.Random(seed)
    kept = 0
    for _ in range(count * THEOREM_ATTEMPTS_PER_SAMPLE):
        if kept == count:
            return
        y = random_perfect_complex(algebra, rng)
        width = 0
        hdims = cohomology_dims(y)
        if hdims:
            degs = sorted(hdims)
            width = degs[-1] - degs[0] + 1
            if width > 3 or any(not proj_dim(cohomology(y, n), cutoff).le(d) for n in degs):
                continue
        kept += 1
        yield y, width


def regularity_check(algebra, max_total_dim: int, cutoff: int, budget: int = 10**6) -> dict:
    """Evidence for regularity up to the bound: does every enumerated
    module have finite projective dimension?  Includes the global-dimension
    estimate max{pd S_i} over the simples."""
    flagged = 0
    seen = 0
    skipped: List[List[int]] = []
    for m in _budgeted_modules(algebra, max_total_dim, budget, skipped):
        seen += 1
        if not proj_dim(m, cutoff).is_finite:
            flagged += 1
    gl = [proj_dim(algebra.simple(i), cutoff) for i in range(algebra.num_vertices)]
    if all(r.is_finite for r in gl):
        gl_estimate = {"kind": "finite", "value": max(r.value for r in gl)}
    else:
        gl_estimate = {"kind": "at_least_cutoff"}
    return {
        "max_total_dim": max_total_dim,
        "cutoff": cutoff,
        "modules_seen": seen,
        "flagged_infinite_or_undecided": flagged,
        "regular_up_to_bound": flagged == 0,
        "gl_dim_estimate": gl_estimate,
        "exhaustive": not skipped,
        "skipped_dim_vectors": skipped,
    }


# -- certificate data model --------------------------------------------------


@dataclass
class LeafStep:
    summand: int
    shift: int
    obj: Complex = None
    level: int = 1


@dataclass
class SumStep:
    parts: List[int]
    obj: Complex = None
    level: int = 0


@dataclass
class ConeStep:
    u: int
    v: int
    map: ChainMap = None
    obj: Complex = None
    level: int = 0


@dataclass
class RetractStep:
    z: int
    p: ChainMap = None
    s: ChainMap = None
    h: Homotopy = None
    obj: Complex = None
    level: int = 0


CertStep = object  # any of the four step dataclasses


@dataclass
class ThickCertificate:
    """A construction tree witnessing generation level over the free module."""

    generator: str  # only "A" is supported
    steps: List[CertStep]
    level: int
    compare: ChainMap  # final object -> target, must be a quasi-isomorphism


def leaf_object(algebra, summand: int, k: int) -> Complex:
    """shift^k of the projective Ae_i as a stalk: one term in degree -k."""
    return shift(projsum_complex(algebra, (summand,), 0), k)


@dataclass
class VerificationResult:
    ok: bool
    diagnostics: List[str]

    def __bool__(self):
        return self.ok


def verify_certificate(
    cert: ThickCertificate, target: Complex, algebra
) -> VerificationResult:
    """Recompute every step bit-exactly and check the level bookkeeping and
    the final comparison quasi-isomorphism.  Failures are diagnostics, not
    exceptions."""
    diags: List[str] = []

    def fail(msg: str) -> VerificationResult:
        diags.append(msg)
        return VerificationResult(False, diags)

    if cert.generator != "A":
        return fail(f"unsupported generator {cert.generator!r}")
    for idx, step in enumerate(cert.steps):
        if isinstance(step, LeafStep):
            if not (0 <= step.summand < algebra.num_vertices):
                return fail(f"step {idx}: leaf summand out of range")
            expect = leaf_object(algebra, step.summand, step.shift)
            if step.obj != expect:
                return fail(f"step {idx}: leaf object does not match its descriptor")
            if step.level != 1:
                return fail(f"step {idx}: leaf level must be 1")
        elif isinstance(step, SumStep):
            if any(not (0 <= j < idx) for j in step.parts):
                return fail(f"step {idx}: sum references a non-earlier step")
            expect = direct_sum(algebra, [cert.steps[j].obj for j in step.parts])
            if step.obj != expect:
                return fail(f"step {idx}: sum object does not recompute")
            want = max((cert.steps[j].level for j in step.parts), default=0)
            if step.level != want:
                return fail(f"step {idx}: sum level should be {want}")
        elif isinstance(step, ConeStep):
            if not (0 <= step.u < idx and 0 <= step.v < idx):
                return fail(f"step {idx}: cone references a non-earlier step")
            uo, vo = cert.steps[step.u].obj, cert.steps[step.v].obj
            if cert.steps[step.u].level != 1:
                return fail(f"step {idx}: cone source must have level 1")
            if step.map.source != uo or step.map.target != vo:
                return fail(f"step {idx}: cone map endpoints do not match")
            if not step.map.commutes():
                return fail(f"step {idx}: cone map is not a chain map")
            expect = cone(step.map)
            if step.obj != expect:
                return fail(f"step {idx}: cone object does not recompute")
            want = cert.steps[step.v].level + 1
            if step.level != want:
                return fail(f"step {idx}: cone level should be {want}")
        elif isinstance(step, RetractStep):
            if not (0 <= step.z < idx):
                return fail(f"step {idx}: retract references a non-earlier step")
            zo = cert.steps[step.z].obj
            if step.p.source != zo or step.p.target != step.obj:
                return fail(f"step {idx}: retract projection endpoints wrong")
            if step.s.source != step.obj or step.s.target != zo:
                return fail(f"step {idx}: retract section endpoints wrong")
            if not (step.p.commutes() and step.s.commutes()):
                return fail(f"step {idx}: retract maps are not chain maps")
            diff = step.p.compose(step.s) - ChainMap.identity(step.obj)
            if not step.h.certifies(diff):
                return fail(f"step {idx}: homotopy does not certify the retraction")
            if step.level != cert.steps[step.z].level:
                return fail(f"step {idx}: retract level must equal its source's")
        else:
            return fail(f"step {idx}: unknown step kind")
    if cert.steps:
        final = cert.steps[-1].obj
        want = cert.steps[-1].level
    else:
        final = Complex(algebra, {}, {}, proj_verts={}, check=False)
        want = 0
    if cert.level != want:
        return fail(f"declared level {cert.level} but construction gives {want}")
    if cert.compare.source != final:
        return fail("comparison map does not start at the final object")
    if cert.compare.target != target:
        return fail("comparison map does not end at the target")
    if not cert.compare.commutes():
        return fail("comparison map is not a chain map")
    if not is_acyclic(cone(cert.compare)):
        return fail("comparison map is not a quasi-isomorphism")
    diags.append(f"ok: level {cert.level}, {len(cert.steps)} steps")
    return VerificationResult(True, diags)


# -- certificate builders ----------------------------------------------------


def _certificate(
    x: Complex, target: Complex, comps: Dict[int, ModuleMap]
) -> ThickCertificate:
    """The cone-tower certificate of a complex of projectives x, compared
    with target by the chain map x -> target with components `comps`.

    Each contiguous run of x.support is peeled from its top term downward:
    a leaf sum for the top term, then for each lower term j a leaf sum
    coned onto the tower by {j + 1: d^j}, one level per term.  Several runs
    are summed at level = max; a zero x gives the empty certificate.
    """
    algebra = x.algebra
    steps: List[CertStep] = []

    def add(step) -> int:
        steps.append(step)
        return len(steps) - 1

    def leaf_sum(verts: Sequence[int], k: int) -> int:
        idxs = [add(LeafStep(i, k, leaf_object(algebra, i, k), 1)) for i in verts]
        return add(SumStep(idxs, direct_sum(algebra, [steps[j].obj for j in idxs]), 1))

    runs: List[List[int]] = []
    for deg in x.support:
        if runs and runs[-1][-1] == deg - 1:
            runs[-1].append(deg)
        else:
            runs.append([deg])
    tops: List[int] = []
    for run in runs:
        cur = leaf_sum(x.proj_verts[run[-1]], -run[-1])
        for j in reversed(run[:-1]):
            u = leaf_sum(x.proj_verts[j], -(j + 1))
            phi = ChainMap(steps[u].obj, steps[cur].obj, {j + 1: x.diff(j)}, check=False)
            cur = add(ConeStep(u, cur, phi, cone(phi), steps[cur].level + 1))
        tops.append(cur)
    if not tops:
        return ThickCertificate("A", [], 0, ChainMap(x, target, comps, check=False))
    if len(tops) > 1:
        obj = direct_sum(algebra, [steps[j].obj for j in tops])
        tops = [add(SumStep(tops, obj, max(steps[j].level for j in tops)))]
    final = steps[tops[0]]
    return ThickCertificate(
        "A", steps, final.level, ChainMap(final.obj, target, comps, check=False)
    )


def certificate_from_resolution(
    m: Module, cutoff: int, truncate_at: Optional[int] = None
) -> ThickCertificate:
    """Level pd+1 certificate for a module stalk, by iterated cones on the
    minimal resolution differentials.

    `truncate_at` deliberately stops the build early, producing an invalid
    certificate (a negative control for the verifier); leave it None for
    real use.
    """
    x = resolve_to_perfect(m, cutoff)
    comps = {}
    if not m.is_zero():
        # the augmentation P_0 -> m: step 0 of the resolution just read
        comps[0] = next(resolution_steps(m))[2]
    if truncate_at is not None:
        x = stupid_truncate(x, lo=-max(truncate_at, 0))
    return _certificate(x, stalk_complex(m, 0), comps)


# -- minimal models of perfect complexes -------------------------------------


def _pivot_pair(x: Complex) -> Optional[Tuple[int, int, int]]:
    """The first (n, g, g'), in that order, such that d^n maps summand g of
    x^n isomorphically onto summand g' of x^{n+1}: both are Ae_i for one
    vertex i, and the coefficient of the trivial path at the generator is
    nonzero."""
    algebra = x.algebra
    for n in sorted(x.diffs):
        mats = x.diffs[n].mats
        tpos = generator_positions(algebra, x.proj_verts[n + 1])
        for g, (i, col) in enumerate(generator_positions(algebra, x.proj_verts[n])):
            for gp, (j, row) in enumerate(tpos):
                if i == j and mats[i].data[row][col] != 0:
                    return n, g, gp
    return None


def _split(
    algebra, verts: Sequence[int], k: int, dims: Sequence[int]
) -> List[Tuple[range, List[int]]]:
    """Per vertex of the projective sum with fiber dims `dims`: the
    coordinates of summand k, and those of the other summands in order."""
    offsets = projsum_offsets(algebra, verts) + [dims]
    out = []
    for v, d in enumerate(dims):
        s, e = offsets[k][v], offsets[k + 1][v]
        out.append((range(s, e), [*range(s), *range(e, d)]))
    return out


def minimize_perfect(x: Complex) -> Tuple[Complex, ChainMap]:
    """Strip contractible two-term summands until every differential is
    radical-valued.  Returns (x_min, f) with f: x_min -> x a quasi-iso.

    A differential component between summands Ae_i -> Ae_i whose trivial-path
    coefficient is nonzero is an isomorphism on that pair; eliminating it is
    exact Gaussian elimination at the level of the algebra.  With d^n split
    by (that pair, the rest) into [[alpha, beta], [gamma, delta]], the pair
    leaves x^n and x^{n+1}, d^n becomes delta - gamma alpha^{-1} beta, and
    d^{n-1} and d^{n+1} keep the rows and the columns of the rest.
    """
    if x.proj_verts is None:
        x, pre = standardize_perfect(x)
    else:
        pre = ChainMap.identity(x)
    algebra = x.algebra
    fld = algebra.field
    cur = x
    total = pre
    while (found := _pivot_pair(cur)) is not None:
        n, g, gp = found
        sv, tv = cur.proj_verts[n], cur.proj_verts[n + 1]
        src, tgt = cur.term(n), cur.term(n + 1)
        new_sv, new_tv = sv[:g] + sv[g + 1 :], tv[:gp] + tv[gp + 1 :]
        new_src = projsum_module(algebra, new_sv)
        new_tgt = projsum_module(algebra, new_tv)
        ssplit = _split(algebra, sv, g, src.dims)
        tsplit = _split(algebra, tv, gp, tgt.dims)
        dn, at_n, at_n1 = [], [], []
        for d, (a, b), (c, e) in zip(cur.diffs[n].mats, ssplit, tsplit):
            alpha = d.submatrix(c, a)
            ainv = solve_matrix(alpha, Matrix.identity(fld, alpha.rows))
            if ainv is None:
                raise RuntimeError("expected invertible elimination block")
            ainv_beta = ainv @ d.submatrix(c, b)
            dn.append(d.submatrix(e, b) - d.submatrix(e, a) @ ainv_beta)
            # quasi-iso nxt -> cur: [-alpha^{-1} beta; id] at n, [0; id] at n+1
            comp = Matrix.identity(fld, d.cols).submatrix(range(d.cols), b)
            at_n.append(comp.with_block(a, range(len(b)), -ainv_beta))
            at_n1.append(Matrix.identity(fld, d.rows).submatrix(range(d.rows), e))
        diffs = {**cur.diffs, n: ModuleMap(new_src, new_tgt, dn, check=False)}
        if n - 1 in diffs:
            dm = diffs[n - 1]
            mats = [m.submatrix(b, range(m.cols)) for m, (_, b) in zip(dm.mats, ssplit)]
            diffs[n - 1] = ModuleMap(dm.source, new_src, mats, check=False)
        if n + 1 in diffs:
            dp = diffs[n + 1]
            mats = [m.submatrix(range(m.rows), e) for m, (_, e) in zip(dp.mats, tsplit)]
            diffs[n + 1] = ModuleMap(new_tgt, dp.target, mats, check=False)
        terms = {**cur.terms, n: new_src, n + 1: new_tgt}
        pv = {**cur.proj_verts, n: new_sv, n + 1: new_tv}
        nxt = Complex(algebra, terms, diffs, proj_verts=pv, check=False)
        placed = {
            n: ModuleMap(new_src, src, at_n, check=False),
            n + 1: ModuleMap(new_tgt, tgt, at_n1, check=False),
        }
        comps = {
            deg: placed[deg] if deg in placed else ModuleMap.identity(t)
            for deg, t in nxt.terms.items()
        }
        total = total.compose(ChainMap(nxt, cur, comps, check=False))
        cur = nxt
    return cur, total


def certificate_for_hom_p(y: Complex, d: int, cutoff: int) -> ThickCertificate:
    """Generation-level certificate for any perfect complex whose cohomology
    modules have finite projective dimension (each checked within the cutoff).

    The complex is replaced by its minimal model, whose terms are peeled
    off by the cone tower of `_certificate`: one level per term of the
    longest contiguous run.  For cohomology spread over p degrees with
    projective dimensions <= d the resulting level is at most p + d.  The
    bound d is not read; it is the d of that statement.
    """
    hdims = cohomology_dims(y)
    for n in sorted(hdims):
        status = proj_dim(cohomology(y, n), cutoff)
        if not status.is_finite:
            raise ResolutionCutoffError(
                f"cohomology in degree {n} has undecided projective dimension "
                f"within cutoff {cutoff}"
            )
    if not hdims:  # acyclic: the minimal model is zero
        return _certificate(Complex(y.algebra, {}, {}, proj_verts={}, check=False), y, {})
    zmin, qiso = minimize_perfect(y)
    return _certificate(zmin, y, qiso.comps)


# -- ghost maps --------------------------------------------------------------


def ghost_maps(m: Module, n: int) -> Tuple[List[ChainMap], ChainMap]:
    """The chain of n ghost maps between windows of the resolution of m,
    and their composite.

    The first 2n+2 terms of the minimal resolution are taken as they come,
    never stopping early on periodicity, so the windows always see genuine
    resolution differentials.  phi_i maps the window [-n-i, -i+1] to the
    window [-n-i-1, -i] by the identity in every shared degree.  Each phi_i
    induces zero on cohomology (asserted), so the composite is a composite
    of n ghosts.  The target window of phi_i is the source window of
    phi_{i+1}, so the n+1 windows and the identity of each term are built
    once and shared.
    """
    if n < 1:
        raise ValueError("need at least one ghost map")
    q = resolution_complex(m, 2 * n + 2)
    ids = {deg: ModuleMap.identity(t) for deg, t in q.terms.items()}
    windows = [stupid_truncate(q, -n - k - 1, -k) for k in range(n + 1)]
    maps: List[ChainMap] = []
    for src, tgt in zip(windows, windows[1:]):
        comps = {deg: ids[deg] for deg in src.terms if deg in tgt.terms}
        phi = ChainMap(src, tgt, comps, check=False)
        if not phi.commutes():
            raise RuntimeError("ghost window map fails to be a chain map")
        if not induced_cohomology_zero(phi):
            raise RuntimeError("ghost map is not ghost")
        maps.append(phi)
    composite = maps[0]
    for phi in maps[1:]:
        composite = phi.compose(composite)
    return maps, composite


def ghost_pd_oracle(m: Module, n: int, cutoff: int) -> bool:
    """True iff proj_dim(m) <= n, decided without computing the dimension.

    The composite of n+1 ghost maps starting from the resolution window
    [-n-2, 0] is null-homotopic exactly when the projective dimension is
    at most n: for minimal resolutions a homotopy at the deepest shared
    degree would force an identity to factor through radical-valued maps.
    The cutoff is not read: the oracle resolves at most 2n+4 terms.
    """
    if n < 1:
        raise ValueError("oracle needs n >= 1")
    if m.is_zero():
        return True
    _, composite = ghost_maps(m, n + 1)
    return null_homotopy(composite) is not None
