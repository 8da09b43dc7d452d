import pytest

from findim import QQ, certificate_from_resolution, resolve_to_perfect, stalk_complex, verify_certificate
from findim.serialize import (
    ParseError,
    algebra_from_json,
    algebra_to_json,
    certificate_from_json,
    certificate_to_json,
    chain_map_from_json,
    chain_map_to_json,
    complex_from_json,
    complex_to_json,
    dumps,
    module_from_json,
    module_to_json,
)
from util import a2, dual_numbers, nakayama3


def test_algebra_roundtrip_gf():
    a = nakayama3()
    doc = algebra_to_json(a)
    b = algebra_from_json(doc)
    assert b.dim == a.dim
    assert algebra_to_json(b) == doc


def test_algebra_roundtrip_rational():
    a = dual_numbers(QQ)
    doc = algebra_to_json(a)
    b = algebra_from_json(doc)
    assert b.field.is_rational
    assert algebra_to_json(b) == doc


def test_module_roundtrip():
    a = a2()
    m = a.projective(0)
    doc = module_to_json(m)
    m2 = module_from_json(a, doc)
    assert m2.dims == m.dims and m2.arrow_mats == m.arrow_mats


def test_complex_roundtrip_with_descriptors():
    a = a2()
    x = resolve_to_perfect(a.simple(0), 5)
    doc = complex_to_json(x)
    assert doc["terms"]["0"] == {"proj": [1, 0]}
    y = complex_from_json(a, doc)
    assert y == x
    assert dumps(complex_to_json(y)) == dumps(doc)


def test_complex_roundtrip_without_descriptors():
    a = a2()
    x = stalk_complex(a.simple(0), 0)
    doc = complex_to_json(x)
    y = complex_from_json(a, doc)
    assert y == x


def test_chain_map_roundtrip():
    a = a2()
    x = resolve_to_perfect(a.simple(0), 5)
    from findim import ChainMap

    f = ChainMap.identity(x)
    doc = chain_map_to_json(f)
    g = chain_map_from_json(x, x, doc)
    assert g.commutes() and g.comps == f.comps


def test_certificate_roundtrip_verifies():
    a = a2()
    s0 = a.simple(0)
    target = stalk_complex(s0, 0)
    cert = certificate_from_resolution(s0, 5)
    doc = certificate_to_json(cert, target)
    cert2 = certificate_from_json(a, doc)
    assert cert2.compare.target == target
    assert verify_certificate(cert2, cert2.compare.target, a).ok
    assert dumps(certificate_to_json(cert2, cert2.compare.target)) == dumps(doc)


def test_dumps_is_canonical():
    assert dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}'


def test_parse_errors():
    a = a2()
    with pytest.raises(ParseError):
        algebra_from_json({"field": {"gfp": 4}, "vertices": 1, "max_len": 1})
    with pytest.raises(ParseError):
        algebra_from_json({"vertices": 1})
    with pytest.raises(ParseError):
        module_from_json(a, {"dim_vector": [1]})
    with pytest.raises(ParseError):
        module_from_json(a, {"dim_vector": ["x", 0]})
    with pytest.raises(ParseError):
        complex_from_json(a, {"terms": {"0": {"proj": [1, 0]}, "zzz": {"proj": [1, 0]}}})


def test_module_unknown_arrow_id_is_a_parse_error():
    a = a2()
    with pytest.raises(ParseError, match="zz"):
        module_from_json(a, {"dim_vector": [1, 1], "arrows": {"zz": [[1]]}})
    with pytest.raises(ParseError):
        module_from_json(a, {"dim_vector": [1, 1], "arrows": [[[1]]]})


def test_complex_document_needs_terms():
    a = a2()
    module_doc = module_to_json(a.simple(0))
    bad = (module_doc, [], "x", {"differentials": {}}, {"terms": []}, {"terms": {}, "differentials": []})
    for doc in bad:
        with pytest.raises(ParseError):
            complex_from_json(a, doc)
    empty = complex_from_json(a, {"terms": {}, "differentials": {}})
    assert empty.terms == {} and empty.diffs == {}


def test_dangling_differential_is_a_parse_error():
    a = a2()
    for key, missing in (("0", "1"), ("-1", "-1")):
        doc = {"terms": {"0": {"proj": [1, 0]}}, "differentials": {key: 5}}
        with pytest.raises(ParseError, match=f"no term at degree {missing}$"):
            complex_from_json(a, doc)


@pytest.mark.parametrize("mults", [[-1, 0], [1.7, 0], [1], [1, 0, 0], [True, 0], "10", None])
def test_proj_multiplicities_must_be_non_negative_ints(mults):
    with pytest.raises(ParseError, match="multiplicities"):
        complex_from_json(a2(), {"terms": {"0": {"proj": mults}}})


def test_proj_terms_build_only_their_projectives():
    """The size check of a "proj" term reads the fibers from the dimension
    vectors of the projectives it names, so a vertex of multiplicity zero
    gets no projective."""
    a = nakayama3()
    x = complex_from_json(a, {"terms": {"0": {"proj": [0, 2, 0]}}})
    assert x.terms[0].dims == (0, 2, 2)
    assert set(a._proj_cache) == {1}


def test_degree_keys_are_read_only_as_str_writes_them():
    a = a2()
    p0 = {"proj": [1, 0]}
    for key in ("+0", "-0", " 0", "0 ", "00", "1_0", "--1", "-", "", "None", "٣"):
        with pytest.raises(ParseError, match="degree key"):
            complex_from_json(a, {"terms": {key: p0}})
    x = complex_from_json(a, {"terms": {"-10": p0, "7": p0}})
    assert x.support == [-10, 7]
    with pytest.raises(ParseError, match="degree key"):
        chain_map_from_json(x, x, {"+7": [[[1]], [[1]]]})
    assert chain_map_from_json(x, x, {"7": [[[1]], [[1]]]}).comps.keys() == {7}
