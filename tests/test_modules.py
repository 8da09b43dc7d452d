import copy
import itertools
import pickle
import random

import pytest

import findim.modules
from findim import (
    GF,
    QQ,
    Matrix,
    Module,
    ModuleMap,
    Quiver,
    Relation,
    build_algebra,
    enumerate_modules,
    ghost_pd_oracle,
    hom_space,
    inj_dim,
    minimal_resolution,
    proj_dim,
    projective_cover,
    random_module,
    syzygy,
)
from findim.complexes import _basis_of
from findim.linalg import complement_columns, kernel_basis, rank, solve_matrix
from findim.modules import (
    direct_sum_modules,
    kernel_of,
    map_from_generator_images,
    modules_isomorphic,
    projsum_module,
    projsum_offsets,
    quotient_module,
    radical_basis,
    resolution_steps,
    submodule_closure,
    yoneda_coordinates,
)
from util import a2, assert_frozen, dual_numbers, k_algebra, linear4, nakayama3, same_mats


def _surjective(f):
    return all(rank(m) == m.rows for m in f.mats)


def test_module_relation_check():
    a = dual_numbers()
    with pytest.raises(ValueError):
        Module(a, [1], {"x": Matrix(a.field, 1, 1, [[1]])})
    m = Module(a, [2], {"x": Matrix(a.field, 2, 2, [[0, 1], [0, 0]])})
    assert m.total_dim == 2


def test_hom_spaces_a2():
    a = a2()
    p0, s0, s1 = a.projective(0), a.simple(0), a.simple(1)
    assert len(hom_space(p0, s0)) == 1
    assert len(hom_space(s0, s1)) == 0
    assert len(hom_space(p0, p0)) == 1


def test_module_map_composition_and_kernel():
    a = a2()
    p0, s0 = a.projective(0), a.simple(0)
    (f,) = hom_space(p0, s0)
    assert _surjective(f)
    k = syzygy(s0)
    assert k.dims == [0, 1]  # the radical of P0, i.e. P1


def _random_map(m, n, rng):
    """A random combination of the Hom(m, n) basis, or the zero map."""
    out = ModuleMap.zero(m, n)
    for g in hom_space(m, n):
        out = out + g.scale(rng.randrange(-3, 4))
    return out


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
def test_compose_is_the_product_sharing_identity_factors(field):
    """compose equals the plain matrix product vertex by vertex, with and
    without identity factors; beside an identity factor the product is
    the other factor itself, and no matrix of the result can be edited."""
    alg = nakayama3(field)
    rng = random.Random(5)
    mods = [random_module(alg, rng) for _ in range(4)] + [alg.simple(0)]
    shared = 0
    for l, m, n in itertools.product(mods, repeat=3):
        f, g, i = _random_map(l, m, rng), _random_map(m, n, rng), ModuleMap.identity(m)
        for a, b in ((g, f), (i, f), (g, i), (i, i)):
            got = a.compose(b)
            same_mats(got.mats, [x @ y for x, y in zip(a.mats, b.mats)])
            for x, y, z in zip(a.mats, b.mats, got.mats):
                if x.is_identity() or y.is_identity():
                    assert z is (y if x.is_identity() else x)
                    shared += 1
                assert_frozen(z)
    assert shared


def test_projective_cover_top():
    a = nakayama3()
    p0 = a.projective(0)
    assert [d - r.cols for d, r in zip(p0.dims, radical_basis(p0))] == [1, 0, 0]
    cover, cmap, verts = projective_cover(a.simple(0))
    assert verts == [0]
    assert _surjective(cmap)


def test_proj_dim_a2():
    a = a2()
    assert proj_dim(a.simple(0), 5).describe() == "Finite(1)"
    assert proj_dim(a.simple(1), 5).describe() == "Finite(0)"
    assert proj_dim(a.projective(0), 5).value == 0


def test_proj_dim_periodic():
    a = dual_numbers()
    res = proj_dim(a.simple(0), 8)
    assert res.kind == "infinite_periodic"
    assert res.witness == (0, 1)  # Omega S isomorphic to S


def test_proj_dim_nakayama_periodic():
    a = nakayama3()
    res = proj_dim(a.simple(0), 8)
    assert res.kind == "infinite_periodic"


def test_inj_dim_a2():
    a = a2()
    # the sink simple is the projective P1 but has injective dimension 1;
    # the source simple is injective
    assert inj_dim(a.simple(1), 5).describe() == "Finite(1)"
    assert inj_dim(a.simple(0), 5).describe() == "Finite(0)"


def test_minimal_resolution_terms():
    a = a2()
    res = minimal_resolution(a.simple(0), 5)
    assert [t.dims for t in res.terms] == [[1, 1], [0, 1]]
    assert res.status.value == 1
    d1 = res.differentials[0]
    assert res.augmentation.compose(d1).is_zero()


def test_resolution_of_zero_module():
    a = a2()
    z = Module(a, [0, 0], {})
    assert proj_dim(z, 3).value == 0


def test_yoneda_coordinates_roundtrip():
    a = a2()
    s0 = a.simple(0)
    verts = [0, 1]
    f = map_from_generator_images(a, verts, s0, [[1], []])
    assert yoneda_coordinates(a, verts, f) == [1]
    # a map out of a projective sum is determined by its generator images
    g = map_from_generator_images(a, verts, a.projective(0), [[1], [1]])
    assert g.commutes()


def test_direct_sum_offsets():
    a = a2()
    m = direct_sum_modules(a, [a.projective(0), a.projective(1)])
    assert m.dims == [1, 2]
    assert projsum_offsets(a, [0, 1])[1][1] == 1


def _vertex_tuples(alg, longest=3):
    nv = alg.num_vertices
    return [t for k in range(longest + 1) for t in itertools.product(range(nv), repeat=k)]


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
@pytest.mark.parametrize("build", [a2, dual_numbers, nakayama3, linear4], ids=lambda b: b.__name__)
def test_projsum_module_is_the_sum_of_its_projectives(build, field):
    """One module per vertex tuple, equal matrix for matrix to the direct
    sum of the projectives, with the offsets of that sum: the partial sums
    of the projectives' dimension vectors."""
    alg = build(field)
    for verts in _vertex_tuples(alg):
        mod = projsum_module(alg, verts)
        ref = direct_sum_modules(alg, [alg.projective(i) for i in verts])
        assert mod.dims == ref.dims
        for a in alg.quiver.arrows:
            same_mats([mod.arrow_mats[a.id]], [ref.arrow_mats[a.id]])
        acc, ref_offsets = [0] * alg.num_vertices, []
        for i in verts:
            ref_offsets.append(acc)
            acc = [x + d for x, d in zip(acc, alg.projective(i).dims)]
        assert projsum_offsets(alg, verts) == ref_offsets
        assert projsum_module(alg, list(verts)) is mod
    assert projsum_module(build(field), (0,)) is not projsum_module(alg, (0,))


def test_projsum_offsets_are_new_lists():
    alg = linear4()
    verts = (0, 2, 1)
    want = [[0, 0, 0, 0], [1, 1, 0, 0], [1, 1, 1, 1]]
    # the offsets come from the basis, without building or remembering the sum
    assert projsum_offsets(alg, verts) == want
    assert alg._projsum_cache == {}
    offsets = projsum_offsets(alg, verts)
    offsets[1][2] = 99
    offsets.append([7, 7, 7, 7])
    projsum_module(alg, verts)
    assert list(alg._projsum_cache) == [verts]
    assert projsum_offsets(alg, verts) == want


def test_quotient_module():
    a = dual_numbers()
    p = projsum_module(a, [0])
    rad = radical_basis(p)
    sub = submodule_closure(p, rad)
    q, proj = quotient_module(p, sub)
    assert q.dims == [1]
    assert _surjective(proj)
    assert modules_isomorphic(q, a.simple(0)) is True


def _quotient_module_reference(m, sub):
    """quotient_module with unit-vector coset representatives, each arrow
    multiplied by them."""
    alg = m.algebra
    f = alg.field
    nv = alg.num_vertices
    reps = []
    for v in range(nv):
        chosen = complement_columns(sub[v], Matrix.identity(f, m.dims[v]))
        rep = [[f.zero()] * len(chosen) for _ in range(m.dims[v])]
        for k, c in enumerate(chosen):
            rep[c][k] = f.one()
        reps.append(Matrix(f, m.dims[v], len(chosen), rep))
    dims = [reps[v].cols for v in range(nv)]
    projs = []
    for v in range(nv):
        basis = Matrix.hstack(f, [sub[v], reps[v]], rows=m.dims[v])
        sol = solve_matrix(basis, Matrix.identity(f, m.dims[v]))
        projs.append(Matrix(f, dims[v], m.dims[v], [sol.data[sub[v].cols + r] for r in range(dims[v])]))
    mats = {}
    for a in alg.quiver.arrows:
        mats[a.id] = projs[a.target] @ (m.arrow_mats[a.id] @ reps[a.source])
    q = Module(alg, dims, mats, check=False)
    return q, ModuleMap(m, q, projs, check=False)


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
@pytest.mark.parametrize("build", [a2, dual_numbers, nakayama3, linear4], ids=lambda b: b.__name__)
def test_quotient_module_matches_reference(build, field):
    """Same dims, arrows and projection, entry for entry and type for type,
    on the submodules generated by random vectors of random modules."""
    alg = build(field)
    rng = random.Random(23)
    proper = 0
    for _ in range(12):
        m = random_module(alg, rng, max_gens=3)
        gens = []
        for d in m.dims:
            k = rng.randrange(3)
            gens.append(Matrix(field, d, k, [[rng.randrange(3) for _ in range(k)] for _ in range(d)]))
        sub = submodule_closure(m, gens)
        q, proj = quotient_module(m, sub)
        ref, rproj = _quotient_module_reference(m, sub)
        assert q.dims == ref.dims
        arrows = [a.id for a in alg.quiver.arrows]
        same_mats([q.arrow_mats[a] for a in arrows], [ref.arrow_mats[a] for a in arrows])
        same_mats(proj.mats, rproj.mats)
        proper += 0 < q.total_dim < m.total_dim
    assert proper


def _kernel_of_reference(f_map):
    """kernel_of with each arrow solved against the kernel basis at its
    target."""
    alg = f_map.source.algebra
    kbs = [kernel_basis(f_map.mats[v]) for v in range(alg.num_vertices)]
    mats = {}
    for a in alg.quiver.arrows:
        x = solve_matrix(kbs[a.target], f_map.source.arrow_mats[a.id] @ kbs[a.source])
        if x is None:
            raise RuntimeError("kernel is not arrow-stable; inconsistent map")
        mats[a.id] = x
    ker = Module(alg, [kb.cols for kb in kbs], mats, check=False)
    return ker, ModuleMap(ker, f_map.source, kbs, check=False)


def _map_from_generator_images_reference(alg, verts, target, images):
    """map_from_generator_images with one path-action matrix per basis path."""
    src, offsets = projsum_module(alg, verts), projsum_offsets(alg, verts)
    rows = [[[alg.field.zero()] * src.dims[v] for _ in range(target.dims[v])] for v in range(alg.num_vertices)]
    for k, i in enumerate(verts):
        for v in range(alg.num_vertices):
            for pos, bidx in enumerate(alg.basis_by_pair.get((i, v), [])):
                vec = target.act_path(alg.basis_path(bidx)).apply(images[k])
                for r in range(target.dims[v]):
                    rows[v][r][offsets[k][v] + pos] = vec[r]
    mats = [Matrix(alg.field, target.dims[v], src.dims[v], rows[v]) for v in range(alg.num_vertices)]
    return ModuleMap(src, target, mats, check=False)


def _a4_path_algebra(field):
    """The linear quiver 0 -> 1 -> 2 -> 3 with no relations: basis paths of
    length up to three, where the rad^2 = 0 algebras stop at one."""
    q = Quiver(4, [("a0", 0, 1), ("a1", 1, 2), ("a2", 2, 3)])
    return build_algebra(q, [], field, 4)


_REFERENCE_BUILDS = [a2, dual_numbers, nakayama3, linear4, _a4_path_algebra]
_REFERENCE_FIELDS = [GF(2), GF(3), QQ]


@pytest.mark.parametrize("field", _REFERENCE_FIELDS, ids=repr)
@pytest.mark.parametrize("build", _REFERENCE_BUILDS, ids=lambda b: b.__name__)
def test_kernel_of_matches_reference(build, field):
    """Same dims, arrows and inclusion, entry for entry and type for type,
    on projective covers and random maps between random modules."""
    alg = build(field)
    rng = random.Random(29)
    nonzero = 0
    for _ in range(12):
        m = random_module(alg, rng, max_gens=3)
        n = random_module(alg, rng, max_gens=3)
        maps = [_random_map(m, n, rng)]
        if not m.is_zero():
            maps.append(projective_cover(m)[1])
        for f in maps:
            ker, incl = kernel_of(f)
            ref, rincl = _kernel_of_reference(f)
            assert ker.dims == ref.dims
            arrows = [a.id for a in alg.quiver.arrows]
            same_mats([ker.arrow_mats[a] for a in arrows], [ref.arrow_mats[a] for a in arrows])
            same_mats(incl.mats, rincl.mats)
            nonzero += any(not ker.arrow_mats[a].is_zero() for a in arrows)
    assert nonzero


def test_kernel_of_refuses_a_map_that_is_not_a_module_map():
    """P_0 -> S_1 on a2, one at vertex 1: the kernel at vertex 0 is all of
    P_0 there, and the arrow moves it out of the kernel at vertex 1."""
    a = a2()
    p0, s1 = a.projective(0), a.simple(1)
    assert p0.dims == [1, 1] and s1.dims == [0, 1]
    f = ModuleMap(p0, s1, [Matrix.zeros(a.field, 0, 1), Matrix(a.field, 1, 1, [[1]])], check=False)
    assert not f.commutes()
    with pytest.raises(RuntimeError, match="arrow-stable"):
        kernel_of(f)


@pytest.mark.parametrize("field", _REFERENCE_FIELDS, ids=repr)
@pytest.mark.parametrize("build", _REFERENCE_BUILDS, ids=lambda b: b.__name__)
def test_map_from_generator_images_matches_reference(build, field):
    """Same matrices, entry for entry and type for type, for random
    generator images in random modules, given as plain ints that the field
    still has to read (negative ones too)."""
    alg = build(field)
    rng = random.Random(31)
    nonzero = 0
    for _ in range(12):
        target = random_module(alg, rng, max_gens=3)
        verts = [rng.randrange(alg.num_vertices) for _ in range(rng.randint(1, 3))]
        images = [[rng.randrange(-3, 4) for _ in range(target.dims[i])] for i in verts]
        got = map_from_generator_images(alg, verts, target, images)
        ref = _map_from_generator_images_reference(alg, verts, target, images)
        same_mats(got.mats, ref.mats)
        assert got.commutes()
        nonzero += not got.is_zero()
    assert nonzero


def test_modules_isomorphic_negative():
    a = a2()
    assert modules_isomorphic(a.simple(0), a.simple(1)) is False
    assert modules_isomorphic(a.projective(0), a.projective(0)) is True


def test_iso_search_bound_returns_none():
    a = dual_numbers()
    s3 = direct_sum_modules(a, [a.simple(0)] * 3)
    assert modules_isomorphic(s3, s3, search_bound=4) is None
    assert modules_isomorphic(s3, s3) is True
    # dim End(S^3) = 9: 2^9 candidates are searched only when the bound allows 512
    assert len(hom_space(s3, s3)) == 9
    assert modules_isomorphic(s3, s3, search_bound=512) is True
    assert modules_isomorphic(s3, s3, search_bound=511) is None


def _reference_isomorphic(m, n, search_bound=2**16):
    """The invertibility search built from ModuleMap.scale, + and
    is_isomorphism, over the same candidates in the same order."""
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
    for idx in range(1, p ** len(basis)):
        cand = None
        for k, b in enumerate(basis):
            c = idx // p**k % p
            if c:
                term = b.scale(c)
                cand = term if cand is None else cand + term
        if cand.is_isomorphism():
            return True
    return False


def _random_invertible(f, d, rng):
    while True:
        g = Matrix(f, d, d, [[rng.randrange(f.p) for _ in range(d)] for _ in range(d)])
        if rank(g) == d:
            return g


def _conjugate(m, rng):
    """An isomorphic copy of m: arrow a becomes g_t a g_s^-1 for random
    invertible g_v per vertex."""
    f = m.algebra.field
    gs = [_random_invertible(f, d, rng) for d in m.dims]
    inv = [solve_matrix(g, Matrix.identity(f, g.rows)) for g in gs]
    mats = {
        a.id: gs[a.target] @ m.arrow_mats[a.id] @ inv[a.source]
        for a in m.algebra.quiver.arrows
    }
    return Module(m.algebra, m.dims, mats)


def _kronecker(f):
    """Two parallel arrows 0 -> 1: the regular modules of dims [1, 1]
    with different parameters have zero Hom between them."""
    return build_algebra(Quiver(2, [("a", 0, 1), ("b", 0, 1)]), [], f, 4)


_REFERENCE_BOUND = 2**10


@pytest.mark.parametrize("p", [2, 3, 5])
def test_iso_search_matches_reference(p):
    f = GF(p)
    rng = random.Random(p)
    decided = 0
    for alg in (a2(f), dual_numbers(f), nakayama3(f), _kronecker(f)):
        pool = [alg.simple(v) for v in range(alg.num_vertices)]
        pool += [alg.projective(v) for v in range(alg.num_vertices)]
        pool += [random_module(alg, rng) for _ in range(8)]
        pool += [direct_sum_modules(alg, rng.sample(pool, 2)) for _ in range(8)]
        pool = [m for m in pool if p ** len(hom_space(m, m)) <= _REFERENCE_BOUND]
        for m in pool:
            c = _conjugate(m, rng)
            assert modules_isomorphic(m, c, _REFERENCE_BOUND) is True
            assert _reference_isomorphic(m, c, _REFERENCE_BOUND) is True
        for m, n in itertools.product(pool, repeat=2):
            got = modules_isomorphic(m, n, _REFERENCE_BOUND)
            assert got == _reference_isomorphic(m, n, _REFERENCE_BOUND)
            decided += got is not None
    assert decided > 0
    # same dims, not isomorphic: P_0 against S_0 + S_1 on a2
    a = a2(f)
    s01 = direct_sum_modules(a, [a.simple(0), a.simple(1)])
    assert modules_isomorphic(a.projective(0), s01) is False
    assert _reference_isomorphic(a.projective(0), s01) is False
    # same dims, zero Hom: the Kronecker modules (a, b) = (1, 0) and (0, 1)
    k = _kronecker(f)
    one, zero = Matrix(f, 1, 1, [[1]]), Matrix(f, 1, 1, [[0]])
    r10 = Module(k, [1, 1], {"a": one, "b": zero})
    r01 = Module(k, [1, 1], {"a": zero, "b": one})
    assert hom_space(r10, r01) == []
    assert modules_isomorphic(r10, r01) is False
    assert _reference_isomorphic(r10, r01) is False


def test_iso_search_heavy_case(monkeypatch):
    # End(S_0^4) on nakayama3 over GF(2) has dimension 16: the exhaustive
    # search tests thousands of candidates before the first invertible one,
    # where about 31% of random candidates (those of GL_4(2) in M_4(2)) are
    # invertible, so the random witnesses decide after a few tests
    a = nakayama3()
    s4 = direct_sum_modules(a, [a.simple(0)] * 4)
    c = _conjugate(s4, random.Random(0))
    assert len(hom_space(s4, c)) == 16
    tests = []
    invertible = findim.modules._invertible_mod_p

    def counted(rows, p):
        tests.append(p)
        return invertible(rows, p)

    monkeypatch.setattr(findim.modules, "_invertible_mod_p", counted)
    assert modules_isomorphic(s4, c) is True
    assert 0 < len(tests) <= 32


def test_no_iso_search_over_q(monkeypatch):
    """Over Q the search can answer only None or False, so the resolution
    does not run it; over GF(2) the same resolutions do."""
    calls = []
    search = findim.modules.modules_isomorphic

    def counted(m, n):
        calls.append((m, n))
        return search(m, n)

    monkeypatch.setattr(findim.modules, "modules_isomorphic", counted)
    rng = random.Random(37)
    for field in (QQ, GF(2)):
        calls.clear()
        for build in (dual_numbers, nakayama3, linear4):
            alg = build(field)
            mods = [alg.simple(v) for v in range(alg.num_vertices)]
            mods += [random_module(alg, rng) for _ in range(4)]
            for m in mods:
                minimal_resolution(m, 6)
        assert (len(calls) > 0) == (field == GF(2))
    # the dual numbers over Q: undecided at the cutoff, with no search
    alg = dual_numbers(QQ)
    calls.clear()
    assert minimal_resolution(alg.simple(0), 8).status.kind == "at_least_cutoff"
    assert calls == []


# -- the lazy resolution shared by every consumer ---------------------------


def _fresh_steps(m, length):
    """The first `length` steps of the cover loop, computed from scratch."""
    out = []
    current, prev_incl = m, None
    while len(out) < length and not current.is_zero():
        proj, cover, verts = projective_cover(current)
        ker, incl = kernel_of(cover)
        out.append((proj, verts, cover if prev_incl is None else prev_incl.compose(cover), ker))
        current, prev_incl = ker, incl
    return out


def _same_step(got, want):
    """Equal term, vertices, differential and syzygy, matrix for matrix."""
    (p, v, d, k), (p2, v2, d2, k2) = got, want
    return (
        p == p2
        and v == v2
        and d.mats == d2.mats
        and d.source.dims == d2.source.dims
        and d.target.dims == d2.target.dims
        and k == k2
    )


def _resolution_samples():
    for build in (a2, dual_numbers, nakayama3):
        for p in (2, 3):
            yield from enumerate_modules(build(GF(p)), 2)
    rng = random.Random(4)
    for build in (dual_numbers, nakayama3):
        for _ in range(4):
            yield random_module(build(QQ), rng)


def test_lazy_resolution_matches_a_fresh_cover_loop():
    for m in _resolution_samples():
        want = _fresh_steps(m, 7)
        got = list(itertools.islice(resolution_steps(m), 7))
        assert len(got) == len(want)
        assert all(_same_step(g, w) for g, w in zip(got, want))


def test_lazy_resolution_early_stop_then_deeper():
    for m in _resolution_samples():
        want = _fresh_steps(m, 6)
        short = list(itertools.islice(resolution_steps(m), 2))
        deep = list(itertools.islice(resolution_steps(m), 6))
        assert deep[:2] == short
        assert len(deep) == len(want)
        assert all(_same_step(g, w) for g, w in zip(deep, want))


def test_lazy_resolution_interleaved_iterators():
    m = dual_numbers(GF(3)).simple(0)  # periodic: the resolution never ends
    first, second = resolution_steps(m), resolution_steps(m)
    a = [next(first), next(first), next(second), next(first), next(second), next(second)]
    assert a[0] is a[2] and a[1] is a[4] and a[3] is a[5]
    want = _fresh_steps(m.algebra.simple(0), 3)  # a new object: no memo
    assert all(_same_step(g, w) for g, w in zip([a[0], a[1], a[3]], want))


def test_lazy_resolution_of_zero_module_yields_nothing():
    a = a2()
    assert list(resolution_steps(a.zero_module())) == []
    assert list(resolution_steps(Module(a, [0, 0], {}))) == []


def _memos(obj):
    return sorted(k for k in vars(obj) if k.startswith("_"))


def test_copies_of_modules_and_maps_leave_their_memos_behind():
    """A copy carries no remembered resolution or basis: a deep copy
    shares its original's algebra and matrices, which refuse an edit, and
    a copy given another matrix is answered from its own content, never
    from the original's."""
    a = a2()
    p = a.projective(0)
    assert proj_dim(p, 5).describe() == "Finite(0)"
    m = copy.deepcopy(p)
    assert m == p and m.algebra is a and m.arrow_mats["a"] is p.arrow_mats["a"]
    with pytest.raises(TypeError):
        m.arrow_mats["a"].data[0][0] = 0
    m.arrow_mats["a"] = Matrix(a.field, 1, 1, [[0]])  # m is now S_0 + S_1
    assert proj_dim(m, 5).describe() == "Finite(1)"
    fresh = Module(m.algebra, [1, 1], {"a": Matrix(m.algebra.field, 1, 1, [[0]])})
    assert proj_dim(fresh, 5).describe() == "Finite(1)"
    d = next(itertools.islice(resolution_steps(a.simple(0)), 1, None))[2]
    _basis_of(d, 1, kernel_basis)
    assert _memos(p) == ["_resolution"] and _memos(d) == ["_bases"]
    for obj in (p, d):
        for c in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert _memos(c) == [] and type(c) is type(obj)
    q = pickle.loads(pickle.dumps(p))
    assert q.dims == p.dims and q.arrow_mats["a"].data == p.arrow_mats["a"].data
    assert q.algebra is not a


def test_lazy_resolution_covers_each_step_once(monkeypatch):
    import findim.modules as fmod

    calls = []
    cover = fmod.projective_cover

    def counting(m):
        calls.append(m)
        return cover(m)

    monkeypatch.setattr(fmod, "projective_cover", counting)
    for build in (a2, dual_numbers, nakayama3):
        for m in enumerate_modules(build(GF(2)), 2):
            if m.is_zero():
                continue
            expected = len(_fresh_steps(m, 16))
            calls.clear()
            proj_dim(m, 10)
            for n in range(1, 7):
                ghost_pd_oracle(m, n, 16)
            assert len(calls) == expected
            assert len(set(map(id, calls))) == expected


# -- independent oracles on random quivers ------------------------------------


def _random_acyclic_quiver(rng):
    """2 to 5 vertices and up to 6 arrows, each from a lower to a higher
    vertex, parallel arrows allowed."""
    n = rng.randint(2, 5)
    arrows = [(f"a{k}", *sorted(rng.sample(range(n), 2))) for k in range(rng.randint(1, 6))]
    return Quiver(n, arrows)


def _paths(q, length):
    """Every path of this many arrows, as a list of arrow names."""
    paths = [[a] for a in q.arrows]
    for _ in range(length - 1):
        paths = [p + [a] for p in paths for a in q.arrows if a.source == p[-1].target]
    return [[a.id for a in p] for p in paths]


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
def test_path_algebras_without_relations_are_hereditary(field):
    """kQ of an acyclic quiver is hereditary: rad P_i is the sum of the P_j
    over the arrows i -> j, so pd S_i is 1 when an arrow leaves i and 0
    when i is a sink."""
    rng = random.Random(17)
    for _ in range(12):
        q = _random_acyclic_quiver(rng)
        alg = build_algebra(q, [], field, q.num_vertices)
        for i in range(q.num_vertices):
            leaves = any(a.source == i for a in q.arrows)
            assert proj_dim(alg.simple(i), 4).describe() == f"Finite({int(leaves)})"


def _random_monomial_algebras(field, rng):
    """Random zero relations (paths of length 2 and 3) on random acyclic
    quivers, and on oriented cycles cut off at a random path length."""
    for _ in range(10):
        q = _random_acyclic_quiver(rng)
        paths = _paths(q, 2) + _paths(q, 3)
        zero = rng.sample(paths, rng.randint(0, len(paths)))
        yield build_algebra(q, [Relation(q, [(1, p)]) for p in zero], field, q.num_vertices)
    for _ in range(4):
        n = rng.randint(1, 4)
        q = Quiver(n, [(f"c{v}", v, (v + 1) % n) for v in range(n)])
        cut = rng.randint(2, 4)
        short = [p for p in _paths(q, 2) + _paths(q, 3) if len(p) < cut and rng.random() < 0.3]
        zero = _paths(q, cut) + short
        yield build_algebra(q, [Relation(q, [(1, p)]) for p in zero], field, cut)


def test_monomial_algebras_have_simple_pds_independent_of_the_field():
    """Over a monomial algebra the projective dimension of each simple does
    not depend on the field (Green, Happel and Zacharia, 1985)."""
    answers = []
    for field in (GF(2), GF(3), QQ):
        rng = random.Random(23)  # the same quivers and relations per field
        answers.append([])
        for alg in _random_monomial_algebras(field, rng):
            pds = [proj_dim(alg.simple(i), 6) for i in range(alg.num_vertices)]
            answers[-1].append((alg.dim, [r.value if r.is_finite else None for r in pds]))
    assert answers[0] == answers[1] == answers[2]
    seen = {pd for _, pds in answers[0] for pd in pds}
    assert None in seen and len(seen) > 3  # infinite and several finite values
