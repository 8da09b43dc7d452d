import copy
import dataclasses
import gc
import itertools
import pickle
import random
import weakref

import pytest

from findim import (
    GF,
    QQ,
    ChainMap,
    HomComplex,
    amplitude,
    cone,
    direct_sum,
    h_value,
    hom_support,
    in_hom_p,
    proj_dim,
    random_chain_map,
    random_module,
    random_perfect_complex,
    resolve_to_perfect,
    shift,
    stalk_complex,
)
from findim.complexes import cohomology, cohomology_dims
from findim.invariants import (
    ResolutionCutoffError,
    algebra_complex,
    invariants_report,
)
from findim.modules import resolution_steps
from util import a2, dual_numbers, nakayama3


def test_resolve_to_perfect_shapes():
    a = a2()
    x = resolve_to_perfect(a.simple(0), 5)
    assert x.support == [-1, 0]
    assert x.proj_verts == {0: (0,), -1: (1,)}


def test_resolve_to_perfect_raises_on_infinite_pd():
    a = dual_numbers()
    with pytest.raises(ResolutionCutoffError):
        resolve_to_perfect(a.simple(0), 5)


def test_hom_support_examples():
    a = a2()
    s1 = stalk_complex(a.simple(1), 0)
    assert hom_support(algebra_complex(a), s1).dims == {0: 1}
    x = resolve_to_perfect(a.simple(0), 5)
    assert hom_support(x, s1).dims == {1: 1}


def test_amplitude_of_algebra_and_spread():
    a = a2()
    aa = algebra_complex(a)
    assert amplitude(aa) == 0
    assert amplitude(resolve_to_perfect(a.simple(0), 5)) == 0
    for d in (1, 3):
        spread = direct_sum(a, [aa, shift(aa, d)])
        assert amplitude(spread) == d


def test_h_value_and_hom_p():
    a = a2()
    aa = algebra_complex(a)
    spread = direct_sum(a, [aa, shift(aa, 3)])
    assert h_value(aa, spread) == 4
    assert in_hom_p(aa, spread, 4)
    assert not in_hom_p(aa, spread, 3)
    z = cone(ChainMap.identity(aa))
    assert h_value(aa, z) == 0
    assert in_hom_p(aa, z, 0)


def test_invariants_report_shape():
    a = a2()
    rep = invariants_report(algebra_complex(a))
    assert rep["h"] == 1 and rep["amplitude"] == 0
    # Hom(A, A) is the algebra itself, dimension 3
    assert rep["support"] == {"0": 3}


# -- the Hom-support memo ------------------------------------------------------


def _battery_pairs(alg, rng, count):
    """The (x, z) pairs of the criterion-4 battery: x, a shift of x, x plus
    a shift, x + x and a cone on x, each against every probe."""
    probes = _probes(alg)
    for _ in range(count):
        x = random_perfect_complex(alg, rng)
        f = random_chain_map(shift(x, -1), x, rng)
        i = rng.randint(-3, 3)
        for obj in (x, shift(x, i), direct_sum(alg, [x, shift(x, i)]), direct_sum(alg, [x, x]), cone(f)):
            for z in probes:
                yield obj, z


@pytest.mark.parametrize("field", [GF(2), QQ], ids=repr)
@pytest.mark.parametrize("build", [a2, dual_numbers, nakayama3], ids=lambda b: b.__name__)
def test_hom_support_memo_matches_a_fresh_hom_complex(build, field):
    alg = build(field)
    pairs = 0
    for x, z in _battery_pairs(alg, random.Random(31), 5):
        want = HomComplex(x, z).cohomology_dims()
        for _ in range(2):  # computed, then remembered
            assert hom_support(x, z).dims == want
            assert h_value(x, z) == (max(want) - min(want) + 1 if want else 0)
            assert in_hom_p(x, z, 1) == (len(want) <= 1)
        pairs += 1
    assert pairs == 5 * 5 * (alg.num_vertices + 1)


def test_hom_support_memo_holds_the_target_weakly():
    a = a2()
    x = resolve_to_perfect(a.simple(0), 5)
    y = stalk_complex(a.simple(1), 0)
    assert hom_support(x, y).dims == {1: 1}
    assert len(x._hom_supports) == 1
    ref = weakref.ref(y)
    del y
    gc.collect()
    assert ref() is None
    assert x._hom_supports == {}
    # the self-support of amplitude makes no reference cycle through x:
    # x goes as soon as its last reference does
    assert amplitude(x) == 0
    xref = weakref.ref(x)
    gc.disable()
    try:
        del x
        assert xref() is None
    finally:
        gc.enable()


def test_hom_support_memo_answers_only_its_own_target():
    a = a2()
    x = resolve_to_perfect(a.simple(0), 5)
    y1 = stalk_complex(a.simple(1), 0)
    y2 = stalk_complex(a.simple(1), 0)  # equal content, another object
    assert y1 == y2 and y1 is not y2
    assert hom_support(x, y1).dims == {1: 1}
    assert hom_support(x, y2).dims == {1: 1}
    assert len(x._hom_supports) == 2
    # an entry found under the id of another object is not read for it
    y3 = stalk_complex(a.simple(0), 0)
    x._hom_supports[id(y3)] = x._hom_supports.pop(id(y1))
    assert hom_support(x, y3).dims == HomComplex(x, y3).cohomology_dims() == {0: 1}
    # targets made and dropped in turn, whatever ids they reuse
    for i in (0, 1, 0, 1):
        y = stalk_complex(a.simple(i), 0)
        assert hom_support(x, y).dims == HomComplex(x, y).cohomology_dims()
        del y


def test_copies_of_a_complex_leave_its_memos_behind():
    a = a2()
    x = resolve_to_perfect(a.simple(0), 5)
    y = stalk_complex(a.simple(1), 0)
    hom_support(x, y)
    cohomology(x, 0)
    cohomology_dims(x)
    for cx, cy in (copy.deepcopy((x, y)), pickle.loads(pickle.dumps((x, y)))):
        assert not hasattr(cx, "_hom_supports") and not hasattr(cx, "_cohomology")
        assert not hasattr(cx, "_cohomology_dims")
        assert hom_support(cx, cy).dims == {1: 1}


def test_deep_copies_equal_their_originals():
    """A deep copy shares the algebra and the matrices of its original, so
    it equals it; a pickled copy works over an algebra of its own."""
    a = a2()
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    p = a.projective(0)
    x = resolve_to_perfect(a.simple(0), 5)
    for obj in (p, x):
        c = copy.deepcopy(obj)
        assert c == obj and c is not obj and c.algebra is a
        q = pickle.loads(pickle.dumps(obj))
        assert q.algebra is not a and q != obj
    q = pickle.loads(pickle.dumps(p))
    assert q.dims == p.dims and proj_dim(q, 5).describe() == "Finite(0)"
    qx = pickle.loads(pickle.dumps(x))
    assert hom_support(qx, qx).dims == hom_support(x, x).dims


def test_a_resolved_module_is_freed_without_the_collector():
    """The resolution kept on a module holds no reference to the module:
    with the cyclic collector off, it goes with its last reference.  That
    holds as well for a module whose syzygies were read from the memo of
    syzygy steps its algebra kept from an earlier resolution."""
    alg = dual_numbers(GF(3))
    m = alg.simple(0)
    ref = weakref.ref(m)
    gc.disable()
    try:
        assert proj_dim(m, 8).kind == "infinite_periodic"
        first = [ker for *_, ker in itertools.islice(resolution_steps(m), 3)]
        del m
        assert ref() is None
        again = alg.simple(0)
        ref = weakref.ref(again)
        assert proj_dim(again, 8).kind == "infinite_periodic"
        kers = [ker for *_, ker in itertools.islice(resolution_steps(again), 3)]
        assert kers[1] is first[1] and kers[2] is first[2]  # memo hits
        del again, kers
        assert ref() is None
    finally:
        gc.enable()


def test_cohomology_dims_returns_one_read_only_mapping():
    a = a2()
    x = resolve_to_perfect(a.simple(0), 5)
    first = cohomology_dims(x)
    assert first == {0: 1}
    with pytest.raises(TypeError):
        first[3] = 2
    with pytest.raises(AttributeError):
        first.pop(0)
    again = cohomology_dims(x)
    assert again is first and again == {0: 1}


def test_hom_support_returns_one_frozen_object():
    a = a2()
    x = resolve_to_perfect(a.simple(0), 5)
    y = stalk_complex(a.simple(1), 0)
    s = hom_support(x, y)
    with pytest.raises(TypeError):
        s.dims[7] = 2
    with pytest.raises(AttributeError):
        s.dims.pop(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.dims = {}
    t = hom_support(x, y)
    assert t is s and t.dims == {1: 1}
    assert h_value(x, y) == 1 and amplitude(x) == 0
    amp = hom_support(x, x)
    with pytest.raises(AttributeError):
        amp.dims.clear()
    assert amplitude(x) == 0 and hom_support(x, x) is amp and amp.dims == {0: 1}


def test_a_shallow_copy_of_a_complex_cannot_edit_its_original():
    """A shallow copy shares the terms of its original, which refuse an
    edit through the copy as through the original."""
    a = a2()
    x = resolve_to_perfect(a.simple(0), 5)
    assert cohomology_dims(x) == {0: 1}
    terms = dict(x.terms)
    c = copy.copy(x)
    with pytest.raises(TypeError):
        c.terms[0] = a.simple(0)
    with pytest.raises(TypeError):
        del c.terms[-1]
    assert x.terms == c.terms == terms
    assert cohomology_dims(x) == cohomology_dims(c) == {0: 1}
    assert hom_support(x, x).dims == {0: 1}


def test_samplers_are_seed_deterministic():
    a = nakayama3()
    m1 = random_module(a, random.Random(7))
    m2 = random_module(a, random.Random(7))
    assert m1.dims == m2.dims and m1.arrow_mats == m2.arrow_mats
    x1 = random_perfect_complex(a, random.Random(7))
    x2 = random_perfect_complex(a, random.Random(7))
    assert x1 == x2


def test_random_chain_map_commutes():
    a = a2()
    rng = random.Random(11)
    x = random_perfect_complex(a, rng)
    y = random_perfect_complex(a, rng)
    f = random_chain_map(x, y, rng)
    assert f.commutes()


def _samples(algebra, n, seed=0):
    rng = random.Random(seed)
    return [random_perfect_complex(algebra, rng) for _ in range(n)]


def _probes(algebra):
    ps = [stalk_complex(algebra.simple(i), 0) for i in range(algebra.num_vertices)]
    return ps + [algebra_complex(algebra)]


def test_hom_basic_empty_and_width():
    # h = 0 iff the support is empty; h <= 1 iff at most one degree
    for alg in (a2(), nakayama3()):
        probes = _probes(alg)
        for x in _samples(alg, 6):
            for z in probes:
                s = hom_support(x, z)
                assert (h_value(x, z) == 0) == s.is_empty
                assert in_hom_p(x, z, 1) == (len(s.dims) <= 1)


def test_hom_basic_shift_invariance():
    for alg in (a2(), dual_numbers()):
        probes = _probes(alg)
        for x in _samples(alg, 5, seed=1):
            for z in probes:
                for i in (-2, 1, 3):
                    assert h_value(shift(x, i), z) == h_value(x, z)


def test_hom_basic_sum_with_shift():
    # supp(x + x[i], z) = supp(x, z) united with its translate by i, so
    # membership in hom^p transfers both ways with a gap of |i|
    for alg in (a2(), nakayama3()):
        probes = _probes(alg)
        for x in _samples(alg, 4, seed=2):
            for i in (1, 2):
                y = direct_sum(alg, [x, shift(x, i)])
                for z in probes:
                    sx = hom_support(x, z).dims
                    sy = hom_support(y, z).dims
                    expected = dict(sx)
                    for n, d in sx.items():
                        expected[n + i] = expected.get(n + i, 0) + d
                    assert sy == expected
                    if sx:
                        assert h_value(y, z) == h_value(x, z) + i
                    for p in range(0, 5):
                        assert in_hom_p(x, z, p) == in_hom_p(y, z, p + i)


def test_hom_basic_copies_do_not_grow_support():
    for alg in (a2(), dual_numbers()):
        probes = _probes(alg)
        for x in _samples(alg, 4, seed=3):
            y = direct_sum(alg, [x, x, x])
            for z in probes:
                sx, sy = hom_support(x, z).dims, hom_support(y, z).dims
                assert set(sy) == set(sx)
                assert all(sy[n] == 3 * sx[n] for n in sx)


def test_hom_basic_cones_of_self_maps():
    # a cone on a map between shifted copies of x stays in the support span of x
    for alg in (a2(), nakayama3()):
        probes = _probes(alg)
        rng = random.Random(4)
        for x in _samples(alg, 4, seed=4):
            f = random_chain_map(shift(x, -1), x, rng)
            y = cone(f)
            for z in probes:
                sx = set(hom_support(x, z).dims)
                span = sx | {n - 1 for n in sx} | {n + 1 for n in sx}
                assert set(hom_support(y, z).dims) <= span
