import itertools
import json
import os

import pytest

import findim
from findim import GF, QQ, NotFiniteDimensionalError, Quiver, Relation, algebras, build_algebra
from findim.algebras import BudgetExceededError
from findim.serialize import algebra_from_json, field_to_json
from util import a2, dual_numbers, k_algebra, linear4, nakayama3

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "data")


def test_base_field_algebra():
    a = k_algebra()
    assert a.dim == 1
    assert a.nilpotency == 1


def test_a2_basis():
    a = a2()
    assert a.dim == 3
    assert a.nilpotency == 2
    assert a.basis_by_pair[(0, 1)]  # the arrow path class


def test_dual_numbers():
    a = dual_numbers()
    assert a.dim == 2
    assert a.nilpotency == 2


def test_nakayama3():
    a = nakayama3()
    assert a.dim == 6
    assert a.nilpotency == 2


def test_loop_without_relation_is_infinite_dimensional():
    q = Quiver(1, [("x", 0, 0)])
    with pytest.raises(NotFiniteDimensionalError):
        build_algebra(q, [], GF(2), 5)


def test_path_enumeration_budget():
    """A free quiver on two loops has 2^19 - 1 paths of length <= 18."""
    q = Quiver(1, [("x", 0, 0), ("y", 0, 0)])
    with pytest.raises(BudgetExceededError, match="paths"):
        build_algebra(q, [], GF(2), 18)
    with pytest.raises(BudgetExceededError, match="relation matrix"):
        build_algebra(q, [Relation(q, [(1, ["x", "x"])])], GF(2), 11)
    # below both budgets the same presentation fails as infinite-dimensional
    with pytest.raises(NotFiniteDimensionalError):
        build_algebra(q, [Relation(q, [(1, ["x", "x"])])], GF(2), 7)
    assert findim.BudgetExceededError is algebras.BudgetExceededError


def test_path_enumeration_counts_the_arrows_its_paths_hold(monkeypatch):
    """On one loop the paths of length <= L hold L(L + 1)/2 arrows: 91 at
    L = 13 and 105 at L = 14, against a budget of 100."""
    q = Quiver(1, [("x", 0, 0)])
    monkeypatch.setattr(algebras, "MAX_PATH_SLOTS", 100)
    assert len(algebras._enumerate_paths(q, 13)) == 14
    with pytest.raises(BudgetExceededError, match="budget of 100 arrows held by the paths of length <= 14"):
        algebras._enumerate_paths(q, 14)


def test_path_enumeration_stops_at_the_first_empty_length():
    """On an acyclic quiver the path levels end with the longest path,
    however large max_len is, and the algebra does not depend on it."""
    q = Quiver(2, [("a", 0, 1)])
    assert len(algebras._enumerate_paths(q, 10**5)) == 2
    wide = build_algebra(q, [], GF(2), 10**5)
    assert wide.basis_by_pair == a2().basis_by_pair


def _data_algebras():
    """The algebra documents of data/, by file name."""
    out = []
    for fname in sorted(os.listdir(DATA)):
        with open(os.path.join(DATA, fname)) as fh:
            doc = json.load(fh)
        if "vertices" in doc:
            out.append((fname, doc))
    return out


def _linear5(field):
    """The linear quiver on 5 vertices with rad^2 = 0."""
    q = Quiver(5, [(f"a{k}", k, k + 1) for k in range(4)])
    rels = [Relation(q, [(1, [f"a{k}", f"a{k + 1}"])]) for k in range(3)]
    return build_algebra(q, rels, field, 3)


def _basis_paths(alg):
    return [alg.basis_path(k) for k in range(alg.dim)]


FIELDS = [GF(2), GF(3), QQ]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("fname, doc", _data_algebras(), ids=[f for f, _ in _data_algebras()])
def test_data_algebra_basis_is_stable_as_max_len_grows(fname, doc, field):
    """The basis paths at the document's max_len are those at max_len + 6:
    the window already holds every path that is not zero in the algebra."""
    doc = dict(doc, field=field_to_json(field))
    wider = dict(doc, max_len=doc["max_len"] + 6)
    assert _basis_paths(algebra_from_json(doc)) == _basis_paths(algebra_from_json(wider))


# the algebra kinds the benchmark runs on (make_algebra in perfbench/workloads.py)
BENCHMARK_KINDS = [a2, dual_numbers, nakayama3, linear4, _linear5]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("build", BENCHMARK_KINDS, ids=lambda b: b.__name__)
def test_benchmark_algebra_basis_is_stable_as_max_len_grows(build, field):
    alg = build(field)
    wider = build_algebra(alg.quiver, alg.relations, field, alg.max_len + 6)
    assert _basis_paths(alg) == _basis_paths(wider)


def test_commutative_truncated_polynomials_within_budget():
    """k[x,y]/(x^3, y^3) has nilpotency 5, so it is built in the wider window
    of path length 8: 511 paths and a relation matrix of about 0.7M cells."""
    q = Quiver(1, [("x", 0, 0), ("y", 0, 0)])
    rels = [
        Relation(q, [(1, ["x", "x", "x"])]),
        Relation(q, [(1, ["y", "y", "y"])]),
        Relation(q, [(1, ["x", "y"]), (-1, ["y", "x"])]),
    ]
    a = build_algebra(q, rels, GF(2), 5)
    assert a.dim == 9
    assert a.nilpotency == 5


def test_relation_admissibility():
    q = Quiver(1, [("x", 0, 0)])
    with pytest.raises(ValueError):
        Relation(q, [(1, ["x"])])  # length-1 term
    with pytest.raises(ValueError):
        Relation(q, [])


def test_quiver_refuses_an_arrow_id_that_is_not_a_string():
    """An id 1 is not read as "1": an arrow is named by a string only."""
    for aid in (1, True, None, ("x",)):
        with pytest.raises(ValueError, match="is not a string"):
            Quiver(1, [(aid, 0, 0)])


def test_relation_refuses_a_path_that_is_not_a_list_of_arrow_ids():
    """A string path is not read letter by letter, an entry is not passed
    through str(), and an unknown arrow is named in a ValueError."""
    q = Quiver(1, [("x", 0, 0)])
    with pytest.raises(ValueError, match="is a string"):
        Relation(q, [(1, "xx")])
    with pytest.raises(ValueError, match="'xx' is a string"):
        Relation(q, [(1, ["x", "x"]), (1, "xx")])
    for entry in (0, None, ["x"]):
        with pytest.raises(ValueError, match="is not an arrow id string"):
            Relation(q, [(1, ["x", entry])])
    with pytest.raises(ValueError, match="unknown arrow 'y'"):
        Relation(q, [(1, ["x", "y"])])
    q1 = Quiver(1, [("1", 0, 0)])
    with pytest.raises(ValueError, match="not an arrow id string"):
        Relation(q1, [(1, [1, 1])])
    assert Relation(q1, [(1, ["1", "1"])]).terms == [(1, (0, 0))]


def test_relation_parallel_check():
    q = Quiver(3, [("a", 0, 1), ("b", 1, 2), ("d", 2, 2)])
    with pytest.raises(ValueError):
        Relation(q, [(1, ["a", "b"]), (1, ["d", "d"])])  # 0->2 vs 2->2
    with pytest.raises(ValueError):
        Relation(q, [(1, ["b", "a"])])  # not composable


def test_projectives_and_simples_a2():
    a = a2()
    assert a.projective(0).dims == (1, 1)
    assert a.projective(1).dims == (0, 1)
    assert a.simple(0).dims == (1, 0)
    assert a.simple(1).dims == (0, 1)


def test_projectives_nakayama():
    a = nakayama3()
    # uniserial of length 2: P_i has top S_i and socle S_{i+1}
    assert a.projective(0).dims == (1, 1, 0)
    assert a.projective(1).dims == (0, 1, 1)
    assert a.projective(2).dims == (1, 0, 1)


def test_opposite_algebra():
    a = a2()
    op = a.opposite()
    assert op.dim == 3
    assert op.projective(1).dims == (1, 1)  # roles of source and sink swap


def test_dual_module():
    a = a2()
    d = a.dual_module(a.simple(0))
    assert d.algebra is a.opposite()
    assert d.dims == (1, 0)


def test_rational_coefficients():
    q = Quiver(1, [("x", 0, 0)])
    a = build_algebra(q, [Relation(q, [(1, ["x", "x"])])], QQ, 3)
    assert a.dim == 2


def test_commutative_square_with_commutativity_relation():
    q = Quiver(
        4,
        [("a", 0, 1), ("b", 0, 2), ("c", 1, 3), ("d", 2, 3)],
    )
    rel = Relation(q, [(1, ["a", "c"]), (-1, ["b", "d"])])
    alg = build_algebra(q, [rel], GF(3), 4)
    # 4 idempotents + 4 arrows + 1 path class of length two
    assert alg.dim == 9


# -- structure constants against the algebra axioms --------------------------


def _linear_rad2(field):
    """The linear quiver 0 -> 1 -> 2 -> 3 with every path of length two zero."""
    q = Quiver(4, [("a0", 0, 1), ("a1", 1, 2), ("a2", 2, 3)])
    rels = [Relation(q, [(1, ["a0", "a1"])]), Relation(q, [(1, ["a1", "a2"])])]
    return build_algebra(q, rels, field, 4)


def _times(alg, u, v):
    """The product of two elements given as {basis index: coefficient},
    expanded over mult_basis, with zero coefficients dropped."""
    f = alg.field
    out = {}
    for k1, c1 in u.items():
        for k2, c2 in v.items():
            for k, c in alg.mult_basis(k1, k2).items():
                out[k] = f.add(out.get(k, f.zero()), f.mul(f.mul(c1, c2), c))
    return {k: c for k, c in out.items() if c != 0}


def _commutative_cubes(field):
    """k[x, y]/(x^3, y^3, xy - yx): products of length up to four survive,
    reduced through a relation that is not a monomial."""
    q = Quiver(1, [("x", 0, 0), ("y", 0, 0)])
    rels = [
        Relation(q, [(1, ["x", "x", "x"])]),
        Relation(q, [(1, ["y", "y", "y"])]),
        Relation(q, [(1, ["x", "y"]), (-1, ["y", "x"])]),
    ]
    return build_algebra(q, rels, field, 8)


# in the algebras with rad^2 = 0 every product of two arrows is zero, so only
# the last algebra checks the reduction of longer products; it is left out
# over Q, where building it takes seconds
MULT_CASES = [
    (build, field)
    for build in (k_algebra, a2, dual_numbers, nakayama3, _linear_rad2)
    for field in (GF(2), GF(3), QQ)
] + [(_commutative_cubes, GF(2)), (_commutative_cubes, GF(3))]


@pytest.mark.parametrize(
    "build, field", MULT_CASES, ids=[f"{b.__name__}-{f!r}" for b, f in MULT_CASES]
)
def test_mult_basis_is_associative_and_unital(build, field):
    alg = build(field)
    one = alg.field.one()
    basis = range(alg.dim)
    for k1, k2, k3 in itertools.product(basis, repeat=3):
        left = _times(alg, _times(alg, {k1: one}, {k2: one}), {k3: one})
        right = _times(alg, {k1: one}, _times(alg, {k2: one}, {k3: one}))
        assert left == right
    idem = {alg.basis_path(k)[0]: k for k in basis if not alg.basis_path(k)[1]}
    assert sorted(idem) == list(range(alg.num_vertices))
    for k in basis:
        start = alg.basis_path(k)[0]
        assert alg.mult_basis(idem[start], k) == {k: one}
    for i in range(alg.num_vertices):
        p = alg.projective(i)
        findim.Module(alg, p.dims, p.arrow_mats)  # checks that the relations vanish
