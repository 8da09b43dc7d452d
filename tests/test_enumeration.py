"""Module enumeration and the relation check against plain references.

The reference enumeration builds every candidate as public `Matrix`
objects and a `Module`, and keeps those on which each relation, summed as
scaled matrix products along its paths, is the zero matrix.  The library
tests each candidate's entry tuple in place and builds only the modules it
keeps; both must give equal modules in the same order, and the same
accept/reject answer on any module.
"""

import itertools
import random

import pytest

from findim import GF, QQ, Matrix, Module, Quiver, Relation, build_algebra, enumerate_modules, random_module
from findim.certificates import _dim_vectors
from util import dual_numbers, linear4, nakayama3


def _two_commuting_loops(field=None):
    """k[x, y]/(x^2, y^2, xy - yx) on one vertex with two loops."""
    q = Quiver(1, [("x", 0, 0), ("y", 0, 0)])
    rels = [
        Relation(q, [(1, ["x", "x"])]),
        Relation(q, [(1, ["y", "y"])]),
        Relation(q, [(1, ["x", "y"]), (-1, ["y", "x"])]),
    ]
    return build_algebra(q, rels, field or GF(3), 4)


def _square_with_a_coefficient(field=None):
    """The square 0 -> 1 -> 3, 0 -> 2 -> 3 with ab + 2cd = 0."""
    q = Quiver(4, [("a", 0, 1), ("b", 1, 3), ("c", 0, 2), ("d", 2, 3)])
    return build_algebra(q, [Relation(q, [(1, ["a", "b"]), (2, ["c", "d"])])], field or GF(3), 3)


def _loop_power(n, field=None):
    """k[x]/(x^n): one loop whose relation is a path of length n."""
    q = Quiver(1, [("x", 0, 0)])
    return build_algebra(q, [Relation(q, [(1, ["x"] * n)])], field or GF(2), n)


def _matrix_products_vanish(m):
    """Whether every relation of m's algebra, summed as scaled matrix
    products along its paths, is the zero matrix on m."""
    for rel in m.algebra.relations:
        acc = None
        for coeff, arrows in rel.terms:
            term = m.act_path((rel.source, arrows)).scale(coeff)
            acc = term if acc is None else acc + term
        if not acc.is_zero():
            return False
    return True


def _reference_modules(algebra, max_total_dim):
    """Every candidate tuple in the order of enumerate_modules, built as
    public matrices and a module, kept when the matrix products vanish."""
    arrows = algebra.quiver.arrows
    for dims in _dim_vectors(algebra.num_vertices, max_total_dim):
        shapes = [(dims[a.target], dims[a.source]) for a in arrows]
        entries = sum(r * c for r, c in shapes)
        for flat in itertools.product(range(algebra.field.p), repeat=entries):
            mats = {}
            pos = 0
            for a, (r, c) in zip(arrows, shapes):
                mats[a.id] = Matrix(algebra.field, r, c, [list(flat[pos + i * c : pos + (i + 1) * c]) for i in range(r)])
                pos += r * c
            m = Module(algebra, dims, mats, check=False)
            if _matrix_products_vanish(m):
                yield m


ENUMERATIONS = {
    "dual numbers GF(2) dim 4": (lambda: dual_numbers(GF(2)), 4),
    "dual numbers GF(3) dim 3": (lambda: dual_numbers(GF(3)), 3),
    "nakayama3 GF(2) dim 4": (lambda: nakayama3(GF(2)), 4),
    "linear A4 rad^2 = 0 GF(2) dim 4": (lambda: linear4(GF(2)), 4),
    "xy - yx GF(3) dim 2": (lambda: _two_commuting_loops(GF(3)), 2),
    "ab + 2cd GF(3) dim 4": (lambda: _square_with_a_coefficient(GF(3)), 4),
    "x^6 GF(2) dim 3": (lambda: _loop_power(6, GF(2)), 3),
}


@pytest.mark.parametrize("case", sorted(ENUMERATIONS))
def test_enumeration_matches_the_reference(case):
    build, max_dim = ENUMERATIONS[case]
    alg = build()
    got = list(enumerate_modules(alg, max_dim))
    ref = list(_reference_modules(alg, max_dim))
    assert got == ref
    # the relations reject some candidates, so the test compares choices
    candidates = sum(
        alg.field.p ** sum(dims[a.target] * dims[a.source] for a in alg.quiver.arrows)
        for dims in _dim_vectors(alg.num_vertices, max_dim)
    )
    assert 0 < len(got) < candidates


def test_enumeration_builds_a_module_only_for_each_accepted_candidate(monkeypatch):
    """The dual numbers over GF(3) up to dimension 3 have 19,768 candidate
    tuples, of which 116 are modules: the enumeration builds those 116
    modules, no public (coercing) matrix, and one plan per dimension
    vector."""
    alg = dual_numbers(GF(3))
    built = {"Module": 0, "Matrix": 0}
    for cls in (Module, Matrix):
        real = cls.__init__

        def counting(self, *args, _real=real, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    assert len(list(enumerate_modules(alg, 3))) == 116
    assert built == {"Module": 116, "Matrix": 0}
    assert sorted(alg._relation_plans) == [(0,), (1,), (2,), (3,)]


RANDOM_ALGEBRAS = {
    "dual numbers": dual_numbers,
    "nakayama3": nakayama3,
    "linear A4 rad^2 = 0": linear4,
    "xy - yx": _two_commuting_loops,
    "ab + 2cd": _square_with_a_coefficient,
    "x^6": lambda field: _loop_power(6, field),
}


def _perturbed(m, aid, rng):
    """The arrow matrices of m with one seeded entry of arrow aid raised by one."""
    alg = m.algebra
    mats = dict(m.arrow_mats)
    mat = mats[aid]
    i, j = rng.randrange(mat.rows), rng.randrange(mat.cols)
    data = [list(row) for row in mat.data]
    data[i][j] = alg.field.add(data[i][j], alg.field.one())
    mats[aid] = Matrix(alg.field, mat.rows, mat.cols, data)
    return mats


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
@pytest.mark.parametrize("kind", sorted(RANDOM_ALGEBRAS))
def test_relation_check_matches_the_matrix_products(kind, field):
    """Module(check=True) accepts exactly the modules on which the
    relations vanish as matrix products: seeded random modules, and each
    of them with one entry changed."""
    alg = RANDOM_ALGEBRAS[kind](field)
    rng = random.Random(f"{kind} {field}")
    answers = set()
    for _ in range(30):
        m = random_module(alg, rng, 3)
        cases = [dict(m.arrow_mats)]
        entries = [aid for aid, mat in m.arrow_mats.items() if mat.rows and mat.cols]
        if entries:
            cases += [_perturbed(m, rng.choice(entries), rng) for _ in range(4)]
        for mats in cases:
            want = _matrix_products_vanish(Module(alg, m.dims, mats, check=False))
            try:
                Module(alg, m.dims, mats)
                got = True
            except ValueError as exc:
                assert str(exc) == "relations do not vanish on the module"
                got = False
            assert got == want
            answers.add(got)
    assert answers == {True, False}


@pytest.mark.parametrize("field", [GF(2), QQ], ids=str)
def test_relation_check_on_a_long_path(field):
    """x^10 = 0 holds on the nilpotent Jordan block of size 10 and fails on
    the one of size 11."""
    alg = _loop_power(10, field)
    for n, holds in ((10, True), (11, False)):
        jordan = Matrix(field, n, n, [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])
        if holds:
            Module(alg, [n], {"x": jordan})
        else:
            with pytest.raises(ValueError, match="relations do not vanish"):
                Module(alg, [n], {"x": jordan})
