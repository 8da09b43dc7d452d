"""Shared builders for the algebras used across the test suite, an
entry-for-entry comparison of complexes, and a check that a matrix, a
module, a complex, a chain map, a homotopy or a read-only mapping cannot
be edited."""

import pytest

from findim import GF, ChainMap, Complex, Matrix, Module, Quiver, Relation, build_algebra
from findim.complexes import Homotopy


def k_algebra(field=None):
    """The base field as an algebra: one vertex, no arrows."""
    return build_algebra(Quiver(1, []), [], field or GF(2), 1)


def a2(field=None):
    """Path algebra of the quiver 0 --a--> 1 (hereditary, gl.dim 1)."""
    return build_algebra(Quiver(2, [("a", 0, 1)]), [], field or GF(2), 4)


def dual_numbers(field=None):
    """k[x]/(x^2): one loop with a square-zero relation."""
    q = Quiver(1, [("x", 0, 0)])
    return build_algebra(q, [Relation(q, [(1, ["x", "x"])])], field or GF(2), 3)


def nakayama3(field=None):
    """Cyclic Nakayama algebra on 3 vertices with rad^2 = 0 (self-injective)."""
    q = Quiver(
        3,
        [("a0", 0, 1), ("a1", 1, 2), ("a2", 2, 0)],
    )
    rels = [
        Relation(q, [(1, ["a0", "a1"])]),
        Relation(q, [(1, ["a1", "a2"])]),
        Relation(q, [(1, ["a2", "a0"])]),
    ]
    return build_algebra(q, rels, field or GF(2), 4)


def linear4(field=None):
    """The linear quiver 0 -> 1 -> 2 -> 3 with rad^2 = 0 (gl.dim 3)."""
    q = Quiver(4, [("a0", 0, 1), ("a1", 1, 2), ("a2", 2, 3)])
    rels = [Relation(q, [(1, ["a0", "a1"])]), Relation(q, [(1, ["a1", "a2"])])]
    return build_algebra(q, rels, field or GF(2), 3)


def same_mats(got, ref):
    """Two lists of matrices with the same shapes and entries, type for type."""
    assert [(m.rows, m.cols) for m in got] == [(m.rows, m.cols) for m in ref]
    for g, r in zip(got, ref):
        assert g.data == r.data
        assert [[type(e) for e in row] for row in g.data] == [[type(e) for e in row] for row in r.data]


def assert_same_complex(got, ref):
    """Equal terms, descriptors and differentials, degree for degree."""
    assert list(got.terms) == list(ref.terms)
    assert got.proj_verts == ref.proj_verts
    assert list(got.diffs) == list(ref.diffs)
    for n, t in ref.terms.items():
        assert got.terms[n] == t
    for n, d in ref.diffs.items():
        same_mats(got.diffs[n].mats, d.mats)


def assert_frozen(obj):
    """That nothing in a matrix, a module, a complex, a chain map, a
    homotopy or a read-only mapping can be edited.

    A matrix has its rows in a tuple and its entries in tuple rows (exact
    tuples, which nothing can edit): writing a row or an entry raises
    TypeError.  A module has a tuple dimension vector and a read-only
    mapping of frozen arrow matrices; a complex has read-only mappings of
    frozen terms, of differentials with frozen matrices, and of
    descriptors.  A chain map has a read-only mapping of components, and
    a homotopy one of maps, each with a tuple of frozen matrices.  On a
    read-only mapping, item assignment, ``del``, ``pop``, ``update``,
    ``clear`` and ``setdefault`` all raise and leave its items as they
    were.
    """
    if isinstance(obj, Matrix):
        m = obj
        assert type(m.data) is tuple and all(type(row) is tuple for row in m.data)
        assert len(m.data) == m.rows and all(len(row) == m.cols for row in m.data)
        if m.rows:
            with pytest.raises(TypeError):
                m.data[0] = m.data[0]
            if m.cols:
                with pytest.raises(TypeError):
                    m.data[0][0] = m.data[0][0]
    elif isinstance(obj, Module):
        assert type(obj.dims) is tuple
        assert_frozen(obj.arrow_mats)
        for mat in obj.arrow_mats.values():
            assert_frozen(mat)
    elif isinstance(obj, Complex):
        for mapping in (obj.terms, obj.diffs, obj.proj_verts):
            if mapping is not None:
                assert_frozen(mapping)
        for t in obj.terms.values():
            assert_frozen(t)
        for d in obj.diffs.values():
            for mat in d.mats:
                assert_frozen(mat)
    elif isinstance(obj, (ChainMap, Homotopy)):
        maps = obj.comps if isinstance(obj, ChainMap) else obj.maps
        assert_frozen(maps)
        for f in maps.values():
            assert type(f.mats) is tuple
            for mat in f.mats:
                assert_frozen(mat)
    else:
        before = list(obj.items())
        key = next(iter(obj), 0)
        edits = (
            lambda: obj.__setitem__(key, None),
            lambda: obj.__delitem__(key),
            lambda: obj.pop(key),
            lambda: obj.update({key: None}),
            lambda: obj.clear(),
            lambda: obj.setdefault(key, None),
        )
        for edit in edits:
            with pytest.raises((TypeError, AttributeError)):
                edit()
        assert list(obj.items()) == before
