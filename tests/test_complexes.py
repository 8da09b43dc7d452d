import itertools
import random

import pytest

import findim.certificates as certificates
import findim.complexes as complexes
from findim import (
    GF,
    QQ,
    ChainMap,
    Complex,
    HomComplex,
    cone,
    direct_sum,
    enumerate_modules,
    ghost_maps,
    ghost_pd_oracle,
    hom_support,
    null_homotopy,
    shift,
    stalk_complex,
    stupid_truncate,
)
from findim.complexes import (
    NotPerfectError,
    chain_map_basis,
    cohomology,
    cohomology_dims,
    induced_cohomology_zero,
    is_acyclic,
    projsum_complex,
    standardize_perfect,
)
from findim.invariants import (
    ResolutionCutoffError,
    algebra_complex,
    random_chain_map,
    random_module,
    random_perfect_complex,
    resolution_complex,
    resolve_to_perfect,
)
from findim.linalg import (
    Matrix,
    column_space_basis,
    complement_columns,
    kernel_basis,
    rank,
    solve,
    solve_matrix,
)
from findim.modules import (
    Module,
    ModuleMap,
    direct_sum_modules,
    projsum_module,
    resolution_steps,
)
from util import a2, assert_frozen, assert_same_complex, dual_numbers, linear4, nakayama3


def res_s0(a):
    return resolve_to_perfect(a.simple(0), 5)


def test_complex_validation_rejects_bad_differential():
    a = a2()
    x = res_s0(a)
    d = x.diff(-1)
    with pytest.raises(ValueError):
        Complex(a, {0: d.target, 1: d.target}, {0: d})


def test_cohomology_of_resolution():
    a = a2()
    x = res_s0(a)
    assert cohomology(x, 0).dims == [1, 0]
    assert cohomology(x, -1).is_zero()
    assert cohomology_dims(x) == {0: 1}


def test_cohomology_with_arrow_action():
    a = a2()
    x = stalk_complex(a.projective(0), 0)
    h = cohomology(x, 0)
    assert h.dims == [1, 1]
    assert h.arrow_mats["a"].data == ((1,),)


def test_shift_sign_convention():
    a = a2()
    x = res_s0(a)
    s = shift(x, 1)
    assert s.support == [-2, -1]
    assert s.diff(-2).mats[1] == -x.diff(-1).mats[1]
    assert shift(x, 2).diff(-3).mats[1] == x.diff(-1).mats[1]


def test_cone_of_identity_is_acyclic_and_contractible():
    a = a2()
    x = res_s0(a)
    c = cone(ChainMap.identity(x))
    assert is_acyclic(c)
    assert null_homotopy(ChainMap.identity(c)) is not None


def test_identity_of_noncontractible_complex_has_no_homotopy():
    a = a2()
    x = res_s0(a)
    assert null_homotopy(ChainMap.identity(x)) is None


def test_stupid_truncation():
    a = a2()
    x = res_s0(a)
    assert stupid_truncate(x, lo=0).support == [0]
    assert stupid_truncate(x, hi=-1).support == [-1]
    # both bounds at once, and None ends, on a resolution in degrees -4..0
    q = resolution_complex(dual_numbers().simple(0), 5)
    assert stupid_truncate(q).support == q.support == [-4, -3, -2, -1, 0]
    assert stupid_truncate(q, None, -3).support == [-4, -3]
    assert stupid_truncate(q, -1, None).support == [-1, 0]
    w = stupid_truncate(q, -3, -1)
    assert w.support == [-3, -2, -1] and sorted(w.diffs) == [-3, -2]
    assert all(w.terms[n] is q.terms[n] and w.proj_verts[n] == q.proj_verts[n] for n in w.terms)
    assert all(w.diffs[n] is q.diffs[n] for n in w.diffs)
    assert w == Complex(q.algebra, w.terms, {n: q.diffs[n] for n in (-3, -2)}, q.proj_verts)
    assert stupid_truncate(q, 1, 3).is_zero_complex and stupid_truncate(q, -1, -2).is_zero_complex


def test_resolution_complex_holds_the_remembered_steps():
    """resolution_complex(m, k) reads the first k steps of
    resolution_steps(m), the very objects, computes no step past them,
    and stops with the resolution when that is shorter."""
    for m, k, support in (
        (dual_numbers().simple(0), 3, [-2, -1, 0]),
        (nakayama3().simple(0), 6, [-5, -4, -3, -2, -1, 0]),
        (a2().simple(0), 5, [-1, 0]),
        (a2().zero_module(), 2, []),
    ):
        x = resolution_complex(m, k)
        assert x.support == support
        assert len(getattr(m, "_resolution").steps) == len(support)
        steps = list(itertools.islice(resolution_steps(m), k))
        assert len(steps) == len(support)
        for j, (proj, verts, d, _) in enumerate(steps):
            assert x.terms[-j] is proj and x.proj_verts[-j] == tuple(verts)
            assert x.diffs.get(-j) is (d if j > 0 else None)
        assert sorted(x.diffs) == support[:-1]


def test_direct_sum_empty_is_zero():
    a = a2()
    z = direct_sum(a, [])
    assert z.is_zero_complex


def test_direct_sum_supports_and_descriptors():
    a = a2()
    x = res_s0(a)
    s = direct_sum(a, [x, shift(x, -2)])
    assert s.support == [-1, 0, 1, 2]
    assert s.proj_verts[2] == (0,)


def test_hom_complex_computes_ext():
    a = a2()
    x = res_s0(a)
    hc = HomComplex(x, stalk_complex(a.simple(1), 0))
    assert hc.cohomology_dims() == {1: 1}  # Ext^1 only
    hc2 = HomComplex(x, stalk_complex(a.simple(0), 0))
    assert hc2.cohomology_dims() == {0: 1}  # Hom only


def test_hom_complex_ext_dual_numbers():
    a = dual_numbers()
    s = a.simple(0)
    # truncated resolution of the simple: exts in every degree of the window
    q = resolution_complex(s, 4)
    assert q.support == [-3, -2, -1, 0]
    hc = HomComplex(stupid_truncate(q, lo=0), stalk_complex(s, 0))
    assert hc.cohomology_dims() == {0: 1}


def test_chain_map_basis_contains_identity_direction():
    a = a2()
    x = res_s0(a)
    basis = chain_map_basis(x, x)
    assert len(basis) == 1
    assert all(b.commutes() for b in basis)


def test_null_homotopy_certifies():
    a = nakayama3()
    x = resolve_to_perfect(a.projective(0), 3)
    c = cone(ChainMap.identity(x))
    h = null_homotopy(ChainMap.identity(c))
    assert h is not None
    assert h.certifies(ChainMap.identity(c))


def test_null_homotopy_needs_projective_descriptors():
    a = a2()
    x = res_s0(a)
    bare = Complex(a, dict(x.terms), dict(x.diffs))
    with pytest.raises(NotPerfectError):
        null_homotopy(ChainMap.identity(bare))
    s = stalk_complex(a.simple(0), 0)
    with pytest.raises(NotPerfectError):
        null_homotopy(ChainMap.zero(s, s))


def test_standardize_perfect():
    a = a2()
    x = res_s0(a)
    bare = Complex(a, dict(x.terms), dict(x.diffs))
    std, iso = standardize_perfect(bare)
    assert std.proj_verts == {0: (0,), -1: (1,)}
    assert iso.commutes()


def test_standardize_rejects_non_projective_terms():
    a = a2()
    with pytest.raises(NotPerfectError):
        standardize_perfect(stalk_complex(a.simple(0), 0))


def test_induced_cohomology_zero():
    a = a2()
    x = res_s0(a)
    assert induced_cohomology_zero(ChainMap.zero(x, x))
    assert not induced_cohomology_zero(ChainMap.identity(x))


def test_missing_degrees_share_one_zero_module():
    a = a2()
    x = res_s0(a)
    assert x.term(5) is x.term(-7) is a.zero_module()
    assert x.term(5).is_zero() and x.diff(5).is_zero()
    assert dual_numbers().zero_module() is not a.zero_module()


# -- the Hom-complex differential against independent computations ----------


def _diff_by_unit_columns(hc, n):
    """The differential one unit column at a time: decode the column into
    maps, form d_y o g - (-1)^n g o d_x, encode the result."""
    fld = hc.field
    cols = hc.dim(n)
    sign = -1 if n % 2 == 0 else 1  # -(-1)^n
    columns = []
    for c in range(cols):
        unit = [fld.one() if r == c else fld.zero() for r in range(cols)]
        image = {}
        for k, g in hc.decode(n, unit).items():
            parts = [
                (k, hc.y.diff(k + n).compose(g)),
                (k - 1, g.compose(hc.x.diff(k - 1)).scale(sign)),
            ]
            for deg, f in parts:
                image[deg] = image[deg] + f if deg in image else f
        columns.append(hc.encode(n + 1, image))
    return tuple(zip(*columns)) if cols else ((),) * hc.dim(n + 1)


def _sample_pairs(alg, seed):
    rng = random.Random(seed)
    nv = alg.num_vertices
    # w has nonzero differentials between terms of several summands
    w = direct_sum(
        alg,
        [
            resolution_complex(alg.simple(seed % nv), 3),
            shift(resolution_complex(random_module(alg, rng), 2), 1),
        ],
    )
    single = projsum_complex(alg, (0, nv - 1, 0), degree=1)
    stalks = [stalk_complex(alg.simple(i), 0) for i in range(nv)]
    stalks += [algebra_complex(alg), stalk_complex(random_module(alg, rng), 1)]
    gap = direct_sum(alg, [stalk_complex(alg.simple(0), 0), algebra_complex(alg, 2)])
    ys = stalks + [gap, w, shift(w, 1), direct_sum(alg, [w, shift(w, -2)])]
    ys.append(cone(random_chain_map(shift(w, -1), w, rng)))
    for x in (random_perfect_complex(alg, rng), w, single):
        for y in ys + [x]:
            yield x, y
    # non-radical differentials: the contractible cone on id_w
    for y in stalks + [gap, w]:
        yield cone(ChainMap.identity(w)), y


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
@pytest.mark.parametrize("build", [a2, dual_numbers, nakayama3], ids=lambda b: b.__name__)
def test_diff_matrix_matches_unit_column_reference(build, field):
    alg = build(field)
    for seed in range(2):
        for x, y in _sample_pairs(alg, seed):
            hc = HomComplex(x, y)
            if x.is_zero_complex or y.is_zero_complex:
                continue
            span = range(y.min_deg - x.max_deg, y.max_deg - x.min_deg + 1)
            degrees = [n for n in span if hc.dim(n)]
            if not degrees:
                continue
            for n in range(min(degrees) - 1, max(degrees) + 1):
                got = hc.diff_matrix(n)
                ref = _diff_by_unit_columns(hc, n)
                assert (got.rows, got.cols) == (hc.dim(n + 1), hc.dim(n))
                assert got.data == ref
                assert [[type(e) for e in row] for row in got.data] == [
                    [type(e) for e in row] for row in ref
                ]


def _minimal_resolution_complex(m):
    """resolve_to_perfect(m) where pd m < 4, else its first four terms."""
    try:
        return resolve_to_perfect(m, 4)
    except ResolutionCutoffError:
        return resolution_complex(m, 4)


def _check_tops(m):
    """Minimal differentials land in the radical, so they vanish on
    Hom(-, S_j): Hom(x, S_j[n]) counts the summands P_j of x^{-n}."""
    x = _minimal_resolution_complex(m)
    alg = m.algebra
    for j in range(alg.num_vertices):
        s = hom_support(x, stalk_complex(alg.simple(j), 0))
        for n in range(-1, len(x.terms) + 1):
            assert s.dims.get(n, 0) == x.proj_verts.get(-n, ()).count(j)


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=repr)
@pytest.mark.parametrize("build", [a2, dual_numbers, nakayama3], ids=lambda b: b.__name__)
def test_hom_into_simples_counts_resolution_summands(build, field):
    for m in enumerate_modules(build(field), 3):
        _check_tops(m)


@pytest.mark.parametrize("build", [a2, dual_numbers, nakayama3], ids=lambda b: b.__name__)
def test_hom_into_simples_counts_resolution_summands_over_q(build):
    alg = build(QQ)
    rng = random.Random(11)
    for _ in range(15):
        _check_tops(random_module(alg, rng))


# -- the product-free self-checks against the multiply-and-subtract ones -----


def _commutes_reference(f):
    """d_Y o f^n - f^{n+1} o d_X is zero in every degree, by products."""
    for n in set(f.source.terms) | set(f.target.terms):
        lhs = f.target.diff(n).compose(f.comp(n))
        rhs = f.comp(n + 1).compose(f.source.diff(n))
        if not (lhs - rhs).is_zero():
            return False
    return True


def _ghost_reference(f):
    """Every cycle of the source maps into the boundaries, column by column."""
    x, y = f.source, f.target
    for n in sorted(set(x.terms)):
        for v in range(x.algebra.num_vertices):
            z = kernel_basis(x.diff(n).mats[v])
            if z.cols == 0:
                continue
            bound = column_space_basis(y.diff(n - 1).mats[v])
            fv = f.comp(n).mats[v]
            for c in range(z.cols):
                if solve(bound, fv.apply(z.col(c))) is None:
                    return False
    return True


def _check_compose(g, f):
    """g.compose(f) has the components of g after f over every degree of
    the source of f, zero ones dropped."""
    ref = ChainMap(
        f.source, g.target, {n: g.comp(n).compose(f.comp(n)) for n in f.source.terms}, check=False
    )
    got = g.compose(f)
    assert got.comps.keys() == ref.comps.keys()
    assert all(got.comps[n].mats == ref.comps[n].mats for n in ref.comps)


def _with_entry(m, r, c, value):
    """m with the entry (r, c) set to value, through the public constructor."""
    rows = [list(row) for row in m.data]
    rows[r][c] = value
    return Matrix(m.field, m.rows, m.cols, rows)


def _rebuilt(f, old, new):
    """f with the matrix `old` replaced by `new` wherever its components and
    the differentials of its source and target hold it: each map holding
    it, the two complexes and the chain map are built anew, and every
    other map is kept, the very object with its memos."""

    def swap(d):
        if all(m is not old for m in d.mats):
            return d
        return ModuleMap(d.source, d.target, [new if m is old else m for m in d.mats], check=False)

    def rebuild(x):
        diffs = {n: swap(d) for n, d in x.diffs.items()}
        return Complex(x.algebra, x.terms, diffs, proj_verts=x.proj_verts, check=False)

    comps = {n: swap(g) for n, g in f.comps.items()}
    return ChainMap(rebuild(f.source), rebuild(f.target), comps, check=False)


def _tampered(f, rng):
    """Rebuilds of f, each with one entry changed: in a component (an
    identity one, for the ghost windows) or in a differential of the
    source or the target."""
    fld = f.source.algebra.field
    out = []
    for maps in (f.comps, f.source.diffs, f.target.diffs):
        cells = [
            (m, r, c)
            for _, d in sorted(maps.items())
            for m in d.mats
            for r in range(m.rows)
            for c in range(m.cols)
        ]
        if not cells:
            continue
        m, r, c = rng.choice(cells)
        value = fld.add(m.data[r][c], fld.coerce(rng.randrange(1, fld.p or 3)))
        out.append(_rebuilt(f, m, _with_entry(m, r, c, value)))
    return out


def _check_against_references(f, rng):
    """The fast checks agree with the references on f and on tampered copies."""
    assert f.commutes() == _commutes_reference(f)
    assert induced_cohomology_zero(f) == _ghost_reference(f)
    refused = 0
    for g in _tampered(f, rng):
        assert g.commutes() == _commutes_reference(g)
        assert induced_cohomology_zero(g) == _ghost_reference(g)
        refused += not (_commutes_reference(g) and _ghost_reference(g))
    return refused


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=repr)
@pytest.mark.parametrize("build", [a2, dual_numbers, nakayama3], ids=lambda b: b.__name__)
def test_ghost_window_checks_match_references(build, field):
    rng = random.Random(7)
    windows = refused = 0
    for m in enumerate_modules(build(field), 3):
        if m.is_zero():
            continue
        maps, _ = ghost_maps(m, 2)
        for phi in maps:
            assert phi.commutes() and _commutes_reference(phi)
            assert induced_cohomology_zero(phi) and _ghost_reference(phi)
            refused += _check_against_references(phi, rng)
            windows += 1
        _check_compose(maps[1], maps[0])
    assert windows and refused  # some tampering shows


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
@pytest.mark.parametrize("build", [a2, dual_numbers, nakayama3], ids=lambda b: b.__name__)
def test_random_chain_map_checks_match_references(build, field):
    alg = build(field)
    rng = random.Random(3)
    for _ in range(6):
        x = random_perfect_complex(alg, rng)
        for y in (x, shift(x, 1), random_perfect_complex(alg, rng)):
            f = random_chain_map(x, y, rng)
            _check_against_references(f, rng)
            _check_compose(random_chain_map(y, x, rng), f)


def test_fast_checks_refuse_an_edit_and_see_a_rebuilt_window():
    """The kernel and boundary bases are remembered per differential.  An
    in-place edit of an entry raises; a window rebuilt around a matrix
    with that entry changed, after the checks have run, shows in both
    checks as it does in the references, and the original still passes."""
    a = dual_numbers(GF(3))
    maps, _ = ghost_maps(a.simple(0), 2)  # runs both checks on each window
    phi = maps[0]
    diffs = list(phi.source.diffs.values()) + list(phi.target.diffs.values())
    mats = {id(m): m for f in diffs + list(phi.comps.values()) for m in f.mats}
    not_chain = not_ghost = 0
    for m in mats.values():
        for r in range(m.rows):
            for c in range(m.cols):
                new = (m.data[r][c] + 1) % 3
                with pytest.raises(TypeError):
                    m.data[r][c] = new
                g = _rebuilt(phi, m, _with_entry(m, r, c, new))
                chain, ghost = _commutes_reference(g), _ghost_reference(g)
                assert g.commutes() == chain
                assert induced_cohomology_zero(g) == ghost
                not_chain += not chain
                not_ghost += not ghost
                assert phi.commutes() and induced_cohomology_zero(phi)
    assert not_chain and not_ghost


def test_ghost_oracle_tests_each_exactness_once(monkeypatch):
    """Over ghost_pd_oracle(m, n) for n = 1..6, induced_cohomology_zero
    makes at most one rank test per (differential, vertex) of the
    resolution of m: the windows of every n share those differentials."""
    alg = nakayama3(GF(2))
    m = alg.simple(0)
    calls = inside = 0
    real_rank, real_check = complexes.rank, certificates.induced_cohomology_zero

    def counted_rank(mat):
        nonlocal calls
        calls += inside
        return real_rank(mat)

    def check(f):
        nonlocal inside
        inside = 1
        try:
            return real_check(f)
        finally:
            inside = 0

    monkeypatch.setattr(complexes, "rank", counted_rank)
    monkeypatch.setattr(certificates, "induced_cohomology_zero", check)
    assert [ghost_pd_oracle(m, n, 20) for n in range(1, 7)] == [False] * 6
    # the deepest oracle (n = 6) reads 2 * 7 + 2 terms, so 15 differentials
    diffs = [d for _, _, d, _ in itertools.islice(resolution_steps(m), 16)][1:]
    assert len(diffs) == 15
    assert 0 < calls <= len(diffs) * alg.num_vertices


# -- cohomology against its construction by coset representatives ------------


def _cohomology_reference(x, n):
    """H^n(x) built directly: coset representatives are the kernel basis
    columns outside the boundaries, and each arrow is solved in the basis
    [boundaries | representatives] of the term."""
    alg = x.algebra
    fld = alg.field
    nv = alg.num_vertices
    term = x.term(n)
    bounds, reps = [], []
    for v in range(nv):
        z = kernel_basis(x.diff(n).mats[v])
        b = column_space_basis(x.diff(n - 1).mats[v])
        chosen = complement_columns(b, z)
        reps.append(
            Matrix(fld, term.dims[v], len(chosen), [[z.data[r][c] for c in chosen] for r in range(term.dims[v])])
        )
        bounds.append(b)
    dims = [r.cols for r in reps]
    mats = {}
    for a in alg.quiver.arrows:
        i, j = a.source, a.target
        basis = Matrix.hstack(fld, [bounds[j], reps[j]], rows=term.dims[j])
        sol = solve_matrix(basis, term.arrow_mats[a.id] @ reps[i])
        assert sol is not None
        mats[a.id] = Matrix(fld, dims[j], dims[i], [sol.data[bounds[j].cols + r] for r in range(dims[j])])
    return Module(alg, dims, mats, check=False)


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(257), QQ], ids=repr)
@pytest.mark.parametrize("build", [a2, dual_numbers, nakayama3], ids=lambda b: b.__name__)
def test_cohomology_matches_reference(build, field):
    """Same dims and the same arrow matrices, entry for entry and type for
    type, in every degree from one below the support to one above it."""
    alg = build(field)
    rng = random.Random(13)
    modules = 0
    for _ in range(8):
        x = random_perfect_complex(alg, rng)
        for y in (x, stalk_complex(random_module(alg, rng), 1)):
            for n in range(y.min_deg - 1, y.max_deg + 2):
                got, ref = cohomology(y, n), _cohomology_reference(y, n)
                assert got.dims == ref.dims
                for a in alg.quiver.arrows:
                    g, r = got.arrow_mats[a.id].data, ref.arrow_mats[a.id].data
                    assert g == r
                    assert [[type(e) for e in row] for row in g] == [[type(e) for e in row] for row in r]
                modules += 1
    assert modules


# -- cohomology dimensions against two ranks per degree -----------------------


def _cohomology_dims_reference(x):
    """dim H^n = (cols - rank d^n) - rank d^{n-1} at each vertex, with both
    ranks computed in every degree."""
    out = {}
    for n in x.support:
        total = 0
        for v in range(x.algebra.num_vertices):
            dn, dprev = x.diff(n).mats[v], x.diff(n - 1).mats[v]
            total += (dn.cols - rank(dn)) - rank(dprev)
        if total:
            out[n] = total
    return out


def _hom_cohomology_dims_reference(hc, x, y):
    """The same two-ranks formula on the Hom complex, over every degree in
    which it can be nonzero."""
    out = {}
    if x.is_zero_complex or y.is_zero_complex:
        return out
    for n in range(y.min_deg - x.max_deg, y.max_deg - x.min_deg + 1):
        dn, dprev = hc.diff_matrix(n), hc.diff_matrix(n - 1)
        d = (dn.cols - rank(dn)) - rank(dprev)
        if d:
            out[n] = d
    return out


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
@pytest.mark.parametrize("build", [a2, dual_numbers, nakayama3], ids=lambda b: b.__name__)
def test_carried_rank_cohomology_dims_match_two_ranks_per_degree(build, field):
    alg = build(field)
    nonzero = 0
    for seed in range(2):
        for x, y in _sample_pairs(alg, seed):
            # the complex kind, also on cones and on non-projective stalks
            for c in (x, y):
                assert cohomology_dims(c) == _cohomology_dims_reference(c)
            # the Hom-complex kind, on a fresh HomComplex for each formula
            got = HomComplex(x, y).cohomology_dims()
            assert got == _hom_cohomology_dims_reference(HomComplex(x, y), x, y)
            nonzero += bool(got)
    assert nonzero


# -- the cone against its construction term by term ----------------------------


def _cone_reference(f):
    """cone(f) with its own terms, its stacked differentials
    [[d_Y, f^{n+1}], [0, -d_X^{n+1}]] and its concatenated descriptors."""
    x, y = f.source, f.target
    alg = x.algebra
    fld = alg.field
    degs = sorted(set(y.terms) | {n - 1 for n in x.terms})
    terms = {n: direct_sum_modules(alg, [y.term(n), x.term(n + 1)]) for n in degs}
    diffs = {}
    for n in degs:
        if n + 1 not in terms:
            continue
        dy, dx, fc = y.diff(n), x.diff(n + 1), f.comp(n + 1)
        mats = []
        for v in range(alg.num_vertices):
            top = Matrix.hstack(fld, [dy.mats[v], fc.mats[v]], rows=dy.mats[v].rows)
            bot = Matrix.hstack(
                fld,
                [Matrix.zeros(fld, dx.mats[v].rows, dy.mats[v].cols), -dx.mats[v]],
                rows=dx.mats[v].rows,
            )
            mats.append(Matrix(fld, top.rows + bot.rows, terms[n].dims[v], top.data + bot.data))
        diffs[n] = ModuleMap(terms[n], terms[n + 1], mats, check=False)
    pv = None
    if x.proj_verts is not None and y.proj_verts is not None:
        pv = {n: tuple(y.proj_verts.get(n, ())) + tuple(x.proj_verts.get(n + 1, ())) for n in degs}
    return Complex(alg, terms, diffs, proj_verts=pv, check=False)


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
@pytest.mark.parametrize("build", [a2, dual_numbers, nakayama3, linear4], ids=lambda b: b.__name__)
def test_cone_matches_reference(build, field):
    alg = build(field)
    rng = random.Random(17)
    placed = 0
    for _ in range(6):
        x = random_perfect_complex(alg, rng)
        for y in (x, shift(x, 1), random_perfect_complex(alg, rng)):
            f = random_chain_map(x, y, rng)
            assert_same_complex(cone(f), _cone_reference(f))
            placed += len(f.comps)
        assert_same_complex(cone(ChainMap.identity(x)), _cone_reference(ChainMap.identity(x)))
    assert placed  # some cones carry a nonzero f block


# -- direct sums against their construction block by block ----------------------


def _direct_sum_reference(algebra, xs):
    """The direct sum with every term a direct sum of modules and every
    differential a block diagonal of the summands' maps, zero maps included."""
    nv = algebra.num_vertices
    degs = sorted({n for x in xs for n in x.terms})
    terms = {n: direct_sum_modules(algebra, [x.term(n) for x in xs]) for n in degs}
    diffs = {}
    for n in degs:
        if n + 1 in terms:
            mats = [
                Matrix.block_diag(algebra.field, [x.diff(n).mats[v] for x in xs])
                for v in range(nv)
            ]
            diffs[n] = ModuleMap(terms[n], terms[n + 1], mats, check=False)
    pv = None
    if all(x.proj_verts is not None for x in xs):
        pv = {n: sum((tuple(x.proj_verts.get(n, ())) for x in xs), ()) for n in degs}
    return Complex(algebra, terms, diffs, proj_verts=pv, check=False)


def _undescribed(x):
    return Complex(x.algebra, x.terms, x.diffs, check=False)


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
@pytest.mark.parametrize("build", [a2, dual_numbers, nakayama3, linear4], ids=lambda b: b.__name__)
def test_direct_sum_matches_reference(build, field):
    """Described and undescribed summands, supports with gaps (a summand
    and its shift by 3, a stalk between), and the empty sum; no
    differential matrix of the sum can be edited."""
    alg = build(field)
    rng = random.Random(5)
    assert_same_complex(direct_sum(alg, []), _direct_sum_reference(alg, []))
    gapped = 0
    for _ in range(6):
        x, y = random_perfect_complex(alg, rng), random_perfect_complex(alg, rng)
        stalk = stalk_complex(random_module(alg, rng), 1)
        gap = direct_sum(alg, [x, shift(x, 3)])
        gapped += any(n + 1 not in gap.terms for n in gap.support[:-1])
        for xs in (
            [x],
            [x, y],
            [x, shift(x, 3)],
            [gap, y, x],
            [x, _undescribed(y)],
            [stalk, x, stalk],
            [_undescribed(x), _undescribed(gap)],
        ):
            got = direct_sum(alg, xs)
            assert_same_complex(got, _direct_sum_reference(alg, xs))
            for d in got.diffs.values():
                for m in d.mats:
                    assert_frozen(m)
    assert gapped


def _held(mats):
    """Each matrix with its rows object, to tell that both are unchanged."""
    return [(m, m.data) for m in mats]


def _same_objects(got, want):
    return len(got) == len(want) and all(a is b and r is s for (a, r), (b, s) in zip(got, want))


@pytest.mark.parametrize("field", [GF(3), QQ], ids=repr)
def test_cone_leaves_its_summands_and_the_shared_sums_unchanged(field):
    """The summands keep their very differential matrices and rows, the
    shared projective sums their arrow matrices, and no differential
    matrix of the cone can be edited."""
    alg = linear4(field)
    rng = random.Random(23)
    placed = 0
    for _ in range(6):
        x, y = random_perfect_complex(alg, rng), random_perfect_complex(alg, rng)
        f = random_chain_map(x, y, rng)
        src, tgt = f.source, f.target
        before = [_held(m for d in z.diffs.values() for m in d.mats) for z in (src, tgt)]
        shared = [t for z in (src, tgt) for t in z.terms.values()]
        shared_mats = _held(m for t in shared for m in t.arrow_mats.values())
        c = cone(f)
        placed += len(f.comps)
        for z, mats in zip((src, tgt), before):
            assert _same_objects(_held(m for d in z.diffs.values() for m in d.mats), mats)
        assert _same_objects(_held(m for t in shared for m in t.arrow_mats.values()), shared_mats)
        for n, verts in c.proj_verts.items():
            assert c.terms[n] is projsum_module(alg, verts)
        for d in c.diffs.values():
            for m in d.mats:
                assert_frozen(m)
    assert placed


def test_missing_differential_equals_explicit_zero():
    alg = a2()
    x = res_s0(alg)  # P_1 -> P_0, a nonzero differential
    assert x.diffs and not any(d.is_zero() for d in x.diffs.values())
    missing = Complex(alg, x.terms, {}, proj_verts=x.proj_verts)
    zeros = {n: ModuleMap.zero(x.term(n), x.term(n + 1)) for n in x.diffs}
    zero = Complex(alg, x.terms, zeros, proj_verts=x.proj_verts)
    assert missing == zero and zero == missing
    assert missing != x and x != missing
    assert zero != x and x != zero
