import pytest

from findim import ChainMap, Complex, HomComplex, cone, direct_sum, null_homotopy, shift, stalk_complex, stupid_truncate
from findim.complexes import (
    NotPerfectError,
    chain_map_basis,
    cohomology,
    cohomology_dims,
    cone_with_triangle,
    induced_cohomology_zero,
    is_acyclic,
    projsum_complex,
    standardize_perfect,
)
from findim.invariants import resolution_complex, resolve_to_perfect
from findim.modules import resolution_steps
from util import a2, dual_numbers, nakayama3


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
    assert h.arrow_mats["a"].data == [[1]]


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


def test_cone_triangle_maps_commute():
    a = a2()
    x = res_s0(a)
    c, incl, proj = cone_with_triangle(ChainMap.identity(x))
    assert incl.commutes() and proj.commutes()
    assert proj.compose(incl).is_zero()


def test_stupid_truncation():
    a = a2()
    x = res_s0(a)
    assert stupid_truncate(x, "ge", 0).support == [0]
    assert stupid_truncate(x, "le", -1).support == [-1]
    with pytest.raises(ValueError):
        stupid_truncate(x, "between", 0)


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
    steps = zip(range(4), resolution_steps(s))
    q = resolution_complex(a, [(proj, verts, d) for _, (proj, verts, d, _) in steps])
    assert q.support == [-3, -2, -1, 0]
    hc = HomComplex(stupid_truncate(q, "ge", 0), stalk_complex(s, 0))
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
