import itertools
import json
import random

import pytest

from findim import (
    GF,
    QQ,
    BudgetExceededError,
    ChainMap,
    Complex,
    Matrix,
    ModuleMap,
    amplitude,
    certificate_for_hom_p,
    certificate_from_resolution,
    direct_sum,
    enumerate_modules,
    findim_estimate,
    finitistic_generator,
    ghost_maps,
    ghost_pd_oracle,
    null_homotopy,
    proj_dim,
    random_chain_map,
    random_perfect_complex,
    regularity_check,
    stalk_complex,
    verify_certificate,
)
from findim.certificates import (
    ConeStep,
    LeafStep,
    RetractStep,
    SumStep,
    ThickCertificate,
    _dim_vectors,
    _modules_with_dims,
    leaf_object,
    minimize_perfect,
)
from findim.complexes import Homotopy, cohomology_dims, induced_cohomology_zero, is_acyclic, cone
from findim.linalg import solve_matrix
from findim.modules import generator_positions, projsum_module, projsum_offsets
from findim.serialize import ParseError, certificate_from_json, certificate_to_json, dumps
from util import a2, assert_same_complex, dual_numbers, k_algebra, linear4, nakayama3, same_mats, truncated_certificate


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_modules(k_algebra(), 2)) == 3
    assert sum(1 for _ in enumerate_modules(a2(), 2)) == 7


def test_enumeration_dual_numbers_small():
    a = dual_numbers()
    mods = list(enumerate_modules(a, 1))
    # zero module plus the simple; a 1x1 loop matrix must square to zero
    assert [m.dims for m in mods] == [(0,), (1,)]
    assert mods[1].arrow_mats["x"].data == ((0,),)


def test_enumeration_budget():
    a = nakayama3()
    with pytest.raises(BudgetExceededError) as exc:
        list(enumerate_modules(a, 6, budget=10))
    assert "exceeds budget" in str(exc.value)


# nakayama3 over GF(2) at total dimension <= 4: with budget 4 the vectors
# whose 3 or more arrow-matrix entries give over 4 candidates are refused,
# (0, 1, 3) first, after the vectors (0, 0, *) and (0, 1, 0..2).
NAKAYAMA3_REFUSED_AT_4 = [
    [0, 1, 3], [0, 2, 2], [0, 3, 1], [1, 0, 3], [1, 1, 1], [1, 1, 2], [1, 2, 1],
    [1, 3, 0], [2, 0, 2], [2, 1, 1], [2, 2, 0], [3, 0, 1], [3, 1, 0],
]


def test_enumeration_stops_at_the_first_refused_vector():
    """The modules of every vector before the first refused one, in order,
    and then the error naming that vector."""
    a = nakayama3()
    got = []
    with pytest.raises(BudgetExceededError) as exc:
        for m in enumerate_modules(a, 4, budget=4):
            got.append(m)
    assert str(exc.value) == "dimension vector [0, 1, 3]: search space 2^3 = 8 exceeds budget 4"
    before = list(itertools.takewhile(lambda d: d != (0, 1, 3), _dim_vectors(3, 4)))
    assert before[-1] == (0, 1, 2)
    assert got == [m for m in enumerate_modules(a, 4) if m.dims in before]
    assert {m.dims for m in got} == set(before)


def _reference_regularity(algebra, max_total_dim, cutoff, budget):
    """regularity_check as its own loop: enumerate, resolve and count."""
    flagged = 0
    seen = 0
    skipped = []
    for dims in _dim_vectors(algebra.num_vertices, max_total_dim):
        entries = sum(dims[a.target] * dims[a.source] for a in algebra.quiver.arrows)
        if algebra.field.p**entries > budget:
            skipped.append(list(dims))
            continue
        for m in _modules_with_dims(algebra, dims):
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


@pytest.mark.parametrize("budget", [10**6, 2])
@pytest.mark.parametrize(
    "build, cutoff", [(a2, 5), (dual_numbers, 6), (nakayama3, 5)], ids=["a2", "dual numbers", "nakayama3"]
)
def test_regularity_check_matches_its_own_loop(build, cutoff, budget):
    """Budget 2 refuses some vector of total dimension <= 3 of each algebra."""
    a = build()
    got = regularity_check(a, 3, cutoff, budget)
    assert got == _reference_regularity(a, 3, cutoff, budget)
    assert got["exhaustive"] == (budget > 2)


def test_findim_estimates():
    assert findim_estimate(k_algebra(), 2, 5).best == 0
    rep = findim_estimate(a2(), 2, 5)
    assert rep.best == 1 and rep.witness_dims == [1, 0]
    assert rep.exhaustive
    dn = findim_estimate(dual_numbers(), 2, 6)
    assert dn.best == 0
    assert dn.excluded == dn.excluded_periodic > 0


def test_findim_monotone_in_bound():
    a = a2()
    assert findim_estimate(a, 1, 5).best <= findim_estimate(a, 2, 5).best


def test_findim_budget_marks_non_exhaustive():
    """Every refused vector is listed, in the order of the enumeration."""
    rep = findim_estimate(nakayama3(), 4, 5, budget=4)
    assert not rep.exhaustive
    assert rep.skipped_dim_vectors == NAKAYAMA3_REFUSED_AT_4


def test_finitistic_generator_amplitude():
    a = a2()
    for d in (0, 1, 2):
        assert amplitude(finitistic_generator(a, d)) == d


def test_regularity_profiles():
    reg = regularity_check(a2(), 2, 5)
    assert reg["regular_up_to_bound"]
    assert reg["gl_dim_estimate"] == {"kind": "finite", "value": 1}
    non = regularity_check(dual_numbers(), 2, 6)
    assert not non["regular_up_to_bound"]
    assert non["gl_dim_estimate"] == {"kind": "at_least_cutoff"}


def test_certificate_from_resolution_verifies():
    a = a2()
    s0 = a.simple(0)
    cert = certificate_from_resolution(s0, 5)
    assert cert.level == 2
    result = verify_certificate(cert, stalk_complex(s0, 0), a)
    assert result.ok, result.diagnostics


def test_certificate_projective_level_one():
    a = nakayama3()
    cert = certificate_from_resolution(a.projective(1), 5)
    assert cert.level == 1
    assert verify_certificate(cert, stalk_complex(a.projective(1), 0), a).ok


def test_certificate_zero_module():
    a = a2()
    from findim import Module

    z = Module(a, [0, 0], {})
    cert = certificate_from_resolution(z, 3)
    assert cert.level == 0
    assert verify_certificate(cert, stalk_complex(z, 0), a).ok


def test_truncated_certificate_fails_verification():
    a = a2()
    s0 = a.simple(0)
    cert = truncated_certificate(s0, 5, 0)
    result = verify_certificate(cert, stalk_complex(s0, 0), a)
    assert not result.ok
    assert "not a quasi-isomorphism" in result.diagnostics[-1]


def test_tampered_certificate_detected():
    a = a2()
    s0 = a.simple(0)
    cert = certificate_from_resolution(s0, 5)
    cert.steps[-1].level += 1  # claim a better level than the construction gives
    result = verify_certificate(cert, stalk_complex(s0, 0), a)
    assert not result.ok
    assert any("level" in d for d in result.diagnostics)


def _retract_cert(steps, z, p, s):
    """Close a construction with a retract of step z through p, s and a
    homotopy h from null_homotopy(p o s - id)."""
    obj = p.target
    h = null_homotopy(p.compose(s) - ChainMap.identity(obj))
    steps.append(RetractStep(z, p, s, h, obj, steps[z].level))
    return ThickCertificate("A", steps, steps[z].level, ChainMap.identity(obj))


def _leaf_off_sum(a):
    """P_0 split off the level-1 sum P_0 + P_1 by inclusion and projection."""
    fld = a.field
    leaf, other = leaf_object(a, 0, 0), leaf_object(a, 1, 0)
    total = direct_sum(a, [leaf, other])
    incl = []
    for v, d in enumerate(leaf.term(0).dims):
        rows = total.term(0).dims[v]
        incl.append(Matrix(fld, rows, d, [[int(r == c) for c in range(d)] for r in range(rows)]))
    s = ChainMap(leaf, total, {0: ModuleMap(leaf.term(0), total.term(0), incl)})
    p = ChainMap(total, leaf, {0: ModuleMap(total.term(0), leaf.term(0), [m.transpose() for m in incl])})
    steps = [LeafStep(0, 0, leaf), LeafStep(1, 0, other), SumStep([0, 1], total, 1)]
    return _retract_cert(steps, 2, p, s)


def _cone_through_zero(a):
    """The contractible cone C of id on a leaf is a retract of itself through
    the zero section, since 0 is homotopic to id_C."""
    leaf = leaf_object(a, 0, 0)
    c = cone(ChainMap.identity(leaf))
    steps = [LeafStep(0, 0, leaf), ConeStep(0, 0, ChainMap.identity(leaf), c, 2)]
    return _retract_cert(steps, 1, ChainMap.identity(c), ChainMap.zero(c, c))


@pytest.mark.parametrize("build", [_leaf_off_sum, _cone_through_zero])
def test_retract_certificate_verifies_and_roundtrips(build):
    a = a2()
    cert = build(a)
    target = cert.compare.target
    assert verify_certificate(cert, target, a).ok
    doc = json.loads(dumps(certificate_to_json(cert, target)))
    back = certificate_from_json(a, doc)
    assert verify_certificate(back, target, a).ok
    assert certificate_to_json(back, target) == doc


def _resolution_cert(a):
    """Leaves, sums and a cone: the certificate of the simple S_0."""
    return certificate_from_resolution(a.simple(0), 5)


def _integer_fields(doc):
    """(container, key) of every integer field of a certificate document."""
    out = [(doc, "level")]
    for step in doc["steps"]:
        out.append((step, "level"))
        if "leaf" in step:
            out += [(step["leaf"], "summand"), (step["leaf"], "shift")]
        elif "sum" in step:
            out += [(step["sum"], j) for j in range(len(step["sum"]))]
        elif "cone" in step:
            out += [(step["cone"], "u"), (step["cone"], "v")]
        else:
            out.append((step["retract"], "z"))
    return out


@pytest.mark.parametrize("build", [_resolution_cert, _leaf_off_sum, _cone_through_zero])
def test_certificate_integers_must_be_json_integers(build):
    """Each integer field as a float, a string or a boolean is a parse
    error, where int() used to read it."""
    a = a2()
    cert = build(a)
    text = dumps(certificate_to_json(cert, cert.compare.target))
    assert certificate_from_json(a, json.loads(text)).level == cert.level
    for k in range(len(_integer_fields(json.loads(text)))):
        for bad in (float, str, bool):
            doc = json.loads(text)
            where, key = _integer_fields(doc)[k]
            where[key] = bad(where[key])
            with pytest.raises(ParseError, match="expected an integer"):
                certificate_from_json(a, doc)


def test_retract_certificate_tampering_names_the_step():
    a = a2()
    cert = _leaf_off_sum(a)
    cert.steps[3].level = 2
    result = verify_certificate(cert, cert.compare.target, a)
    assert not result.ok and result.diagnostics[-1].startswith("step 3: retract level")
    cert = _cone_through_zero(a)
    assert cert.steps[2].h.maps  # a nonzero homotopy, so tampering with it shows
    cert.steps[2].h = Homotopy(cert.steps[2].obj, cert.steps[2].obj, {})
    result = verify_certificate(cert, cert.compare.target, a)
    assert not result.ok and result.diagnostics[-1].startswith("step 2: homotopy")


def test_cone_of_a_map_that_is_not_a_module_map_fails_verification():
    """A cone step on P_0 -> P_0 that is the identity at vertex 0 and zero
    at vertex 1: its squares with the differentials commute, its arrow
    square does not."""
    a = a2()
    leaf = leaf_object(a, 0, 0)
    p0 = leaf.term(0)
    mats = [Matrix(a.field, 1, 1, [[1]]), Matrix(a.field, 1, 1, [[0]])]
    phi = ChainMap(leaf, leaf, {0: ModuleMap(p0, p0, mats)})
    assert phi.commutes() and not phi.comps[0].commutes()
    c = cone(phi)
    steps = [LeafStep(0, 0, leaf), LeafStep(0, 0, leaf), ConeStep(0, 1, phi, c, 2)]
    cert = ThickCertificate("A", steps, 2, ChainMap.identity(c))
    result = verify_certificate(cert, c, a)
    assert not result.ok and result.diagnostics == ["step 2: cone map is not a chain map"]


def test_minimize_perfect_properties():
    a = nakayama3()
    rng = random.Random(5)
    for _ in range(6):
        x = random_perfect_complex(a, rng)
        xmin, qiso = minimize_perfect(x)
        assert qiso.source == xmin and qiso.target == x
        assert qiso.commutes()
        assert is_acyclic(cone(qiso))
        assert cohomology_dims(xmin) == cohomology_dims(x)
        assert sum(t.total_dim for t in xmin.terms.values()) <= sum(
            t.total_dim for t in x.terms.values()
        )


def _reference_block_indices(algebra, verts):
    """Per summand, per vertex: the coordinate indices of its block."""
    offsets = projsum_offsets(algebra, verts)
    return [
        [
            list(range(offsets[k][v], offsets[k][v] + algebra.projective(i).dims[v]))
            for v in range(algebra.num_vertices)
        ]
        for k, i in enumerate(verts)
    ]


def _reference_select(mat, rows, cols):
    return Matrix(mat.field, len(rows), len(cols), [[mat.data[r][c] for c in cols] for r in rows])


def _minimize_perfect_reference(x):
    """minimize_perfect on a complex with descriptors, every block scattered
    entry by entry: the same search order and elimination formulas."""
    algebra = x.algebra
    fld = algebra.field
    nv = algebra.num_vertices
    cur = x
    total = ChainMap.identity(x)
    while True:
        found = None
        for n in sorted(cur.diffs):
            tpos = generator_positions(algebra, cur.proj_verts[n + 1])
            d = cur.diff(n)
            for g, (i, colg) in enumerate(generator_positions(algebra, cur.proj_verts[n])):
                for gp, (j, rowg) in enumerate(tpos):
                    if i == j and d.mats[i].data[rowg][colg] != 0:
                        found = (n, g, gp)
                        break
                if found:
                    break
            if found:
                break
        if found is None:
            return cur, total
        n, g, gp = found
        sv, tv = cur.proj_verts[n], cur.proj_verts[n + 1]
        sblocks = _reference_block_indices(algebra, sv)
        tblocks = _reference_block_indices(algebra, tv)
        keep_s = [k for k in range(len(sv)) if k != g]
        keep_t = [k for k in range(len(tv)) if k != gp]
        srows_a = sblocks[g]
        srows_b = [sum((sblocks[k][v] for k in keep_s), []) for v in range(nv)]
        trows_c = tblocks[gp]
        trows_d = [sum((tblocks[k][v] for k in keep_t), []) for v in range(nv)]
        d = cur.diff(n)
        alpha = [_reference_select(d.mats[v], trows_c[v], srows_a[v]) for v in range(nv)]
        beta = [_reference_select(d.mats[v], trows_c[v], srows_b[v]) for v in range(nv)]
        gamma = [_reference_select(d.mats[v], trows_d[v], srows_a[v]) for v in range(nv)]
        delta = [_reference_select(d.mats[v], trows_d[v], srows_b[v]) for v in range(nv)]
        ainv = [solve_matrix(alpha[v], Matrix.identity(fld, alpha[v].rows)) for v in range(nv)]
        new_sv = tuple(sv[k] for k in keep_s)
        new_tv = tuple(tv[k] for k in keep_t)
        new_src = projsum_module(algebra, new_sv)
        new_tgt = projsum_module(algebra, new_tv)
        terms, diffs, pv = dict(cur.terms), dict(cur.diffs), dict(cur.proj_verts)
        terms[n], terms[n + 1] = new_src, new_tgt
        pv[n], pv[n + 1] = new_sv, new_tv
        diffs[n] = ModuleMap(
            new_src,
            new_tgt,
            [delta[v] - (gamma[v] @ (ainv[v] @ beta[v])) for v in range(nv)],
        )
        if n - 1 in cur.diffs:
            dm = cur.diff(n - 1)
            mats = [
                _reference_select(dm.mats[v], srows_b[v], list(range(dm.mats[v].cols)))
                for v in range(nv)
            ]
            diffs[n - 1] = ModuleMap(dm.source, new_src, mats)
        if n + 1 in cur.diffs:
            dp = cur.diff(n + 1)
            mats = [
                _reference_select(dp.mats[v], list(range(dp.mats[v].rows)), trows_d[v])
                for v in range(nv)
            ]
            diffs[n + 1] = ModuleMap(new_tgt, dp.target, mats)
        nxt = Complex(algebra, terms, diffs, proj_verts=pv)
        comps = {}
        for deg in nxt.terms:
            if deg == n:
                mats = []
                for v in range(nv):
                    full = [[fld.zero()] * new_src.dims[v] for _ in range(cur.term(n).dims[v])]
                    ab = -(ainv[v] @ beta[v])
                    for r_i, r in enumerate(srows_a[v]):
                        full[r] = list(ab.data[r_i])
                    for r_i, r in enumerate(srows_b[v]):
                        for c in range(new_src.dims[v]):
                            full[r][c] = fld.one() if c == r_i else fld.zero()
                    mats.append(Matrix(fld, len(full), new_src.dims[v], full))
                comps[deg] = ModuleMap(new_src, cur.term(n), mats)
            elif deg == n + 1:
                mats = []
                for v in range(nv):
                    full = [[fld.zero()] * new_tgt.dims[v] for _ in range(cur.term(n + 1).dims[v])]
                    for r_i, r in enumerate(trows_d[v]):
                        full[r][r_i] = fld.one()
                    mats.append(Matrix(fld, len(full), new_tgt.dims[v], full))
                comps[deg] = ModuleMap(new_tgt, cur.term(n + 1), mats)
            else:
                comps[deg] = ModuleMap.identity(cur.term(deg))
        total = total.compose(ChainMap(nxt, cur, comps))
        cur = nxt


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
@pytest.mark.parametrize("build", [a2, dual_numbers, nakayama3, linear4], ids=lambda b: b.__name__)
def test_minimize_perfect_matches_reference(build, field):
    """Same minimal model and the same comparison map, component for
    component, on random complexes, random cones, and their sums with the
    contractible cone of an identity, where eliminations must happen."""
    alg = build(field)
    rng = random.Random(19)
    eliminated = 0
    for _ in range(4):
        x = random_perfect_complex(alg, rng)
        c = cone(random_chain_map(x, random_perfect_complex(alg, rng), rng))
        for z in (x, c) + tuple(direct_sum(alg, [w, cone(ChainMap.identity(w))]) for w in (x, c)):
            got, gq = minimize_perfect(z)
            ref, rq = _minimize_perfect_reference(z)
            assert_same_complex(got, ref)
            assert gq.source is got and gq.target is z
            assert list(gq.comps) == list(rq.comps)
            for n, f in rq.comps.items():
                same_mats(gq.comps[n].mats, f.mats)
            eliminated += sum(t.total_dim for t in z.terms.values())
            eliminated -= sum(t.total_dim for t in got.terms.values())
    assert eliminated


def test_certificate_for_hom_p_levels():
    a = a2()
    rng = random.Random(9)
    for _ in range(8):
        x = random_perfect_complex(a, rng)
        dims = cohomology_dims(x)
        if not dims:
            cert = certificate_for_hom_p(x, 0, 8)
            assert cert.level == 0
            assert verify_certificate(cert, x, a).ok
            continue
        width = max(dims) - min(dims) + 1
        cert = certificate_for_hom_p(x, 1, 8)
        assert verify_certificate(cert, x, a).ok
        assert cert.level <= width + 1


def test_ghost_maps_kill_cohomology():
    a = a2()
    s0 = a.simple(0)
    maps, composite = ghost_maps(s0, 2)
    assert len(maps) == 2
    for f in maps:
        assert f.commutes()
        assert induced_cohomology_zero(f)


def test_ghost_oracle_matches_pd():
    a = a2()
    assert ghost_pd_oracle(a.projective(0), 1, 8) is True
    assert ghost_pd_oracle(a.simple(0), 1, 8) is True
    dn = dual_numbers()
    assert ghost_pd_oracle(dn.simple(0), 5, 14) is False
    with pytest.raises(ValueError):
        ghost_pd_oracle(a.simple(0), 0, 8)


def test_ghost_oracle_zero_module():
    a = a2()
    from findim import Module

    assert ghost_pd_oracle(Module(a, [0, 0], {}), 1, 5) is True


def test_ghost_oracle_cross_validation_small():
    a = nakayama3()
    for m in enumerate_modules(a, 2):
        pd = proj_dim(m, 8)
        for n in range(1, 3):
            expected = pd.is_finite and pd.value <= n
            assert ghost_pd_oracle(m, n, 10) == expected
