"""Shared builders for the algebras used across the test suite, an
entry-for-entry comparison of complexes, and a check that a matrix cannot
be edited."""

import pytest

from findim import GF, QQ, Quiver, Relation, build_algebra


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


def assert_frozen(m):
    """Rows in a tuple, entries in tuple rows (exact tuples, which nothing
    can edit): writing a row or an entry raises TypeError."""
    assert type(m.data) is tuple and all(type(row) is tuple for row in m.data)
    assert len(m.data) == m.rows and all(len(row) == m.cols for row in m.data)
    if m.rows:
        with pytest.raises(TypeError):
            m.data[0] = m.data[0]
        if m.cols:
            with pytest.raises(TypeError):
                m.data[0][0] = m.data[0][0]
