"""Static hygiene of the library source: no unused imports, no unused
private helpers, no draws from the shared generator of ``random``, and no
write into the rows of a matrix; and, at run time, matrices, modules,
complexes, chain maps, homotopies and remembered answers that refuse an
edit; constructors of maps and complexes with no option to check
their input; and public generator functions that stay generator
functions.

A stdlib ``ast`` scan of every module in src/findim except the package
``__init__.py``, whose imports are its re-exports; the unused-import scan
reads the test modules too.  An imported name counts
as used when it appears as a name anywhere in the module, including inside
string annotations.  A private module-level function or class (one name
with a single leading underscore) counts as used when some module of the
package names it, as a name or an attribute, outside its own definition.
Random choices come from ``random.Random`` instances with a seed, never
from the module-level functions of ``random``, whose shared state any
caller can reseed or advance.  A matrix is built with its rows and never
written afterwards, so no assignment in the library targets a subscript
of a ``.data`` attribute.
"""

import ast
import copy
import dataclasses
import inspect
import itertools
import os
import pickle
import random
from fractions import Fraction

import pytest

from findim import (
    GF,
    QQ,
    ChainMap,
    Complex,
    HomComplex,
    Matrix,
    Module,
    cone,
    direct_sum,
    ghost_maps,
    hom_space,
    hom_support,
    null_homotopy,
    projective_cover,
    random_chain_map,
    random_perfect_complex,
    shift,
    stalk_complex,
    stupid_truncate,
)
from findim.certificates import (
    certificate_from_resolution,
    enumerate_modules,
    minimize_perfect,
    theorem_samples,
)
from findim.complexes import chain_map_basis, cohomology, cohomology_dims, standardize_perfect
from findim.invariants import resolution_complex, resolve_to_perfect
from findim.linalg import column_space_basis, kernel_basis, rref, solve_matrix
from findim.modules import (
    ModuleMap,
    direct_sum_modules,
    kernel_of,
    projsum_module,
    quotient_module,
    radical_basis,
    resolution_steps,
)
from findim.serialize import (
    chain_map_from_json,
    chain_map_to_json,
    complex_from_json,
    complex_to_json,
    homotopy_from_json,
    homotopy_to_json,
    module_from_json,
    module_to_json,
)
from util import a2, assert_frozen, dual_numbers

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "findim")
TESTS = os.path.dirname(os.path.abspath(__file__))


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = set()
    trees = [tree]
    for ann in _annotations(tree):
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            trees.append(ast.parse(ann.value, mode="eval"))
    for t in trees:
        for node in ast.walk(t):
            if isinstance(node, ast.Name):
                used.add(node.id)
    return used


def unused_imports(path):
    """(line, name) for each name the module imports and never uses."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    used = _used_names(tree)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    out.append((node.lineno, name))
    return sorted(out)


def test_no_unused_imports():
    """Every module of src/findim but the package __init__.py, and every
    test module."""
    found = []
    for where, folder in (("src/findim", SRC), ("tests", TESTS)):
        for fname in sorted(os.listdir(folder)):
            if fname.endswith(".py") and fname != "__init__.py":
                for line, name in unused_imports(os.path.join(folder, fname)):
                    found.append(f"{where}/{fname}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def _sources():
    return sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def unreferenced_private_helpers():
    """(file, line, name) for each private module-level function or class
    that nothing in src/findim refers to beyond its own definition."""
    trees = {}
    for fname in _sources():
        path = os.path.join(SRC, fname)
        with open(path) as fh:
            trees[fname] = ast.parse(fh.read(), filename=path)
    refs = {}  # name -> ids of the Name and Attribute nodes carrying it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(id(node))
    out = []
    for fname, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_") or node.name.startswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            if all(i in inside for i in refs.get(node.name, ())):
                out.append((fname, node.lineno, node.name))
    return out


def test_no_unreferenced_private_helpers():
    found = [f"src/findim/{f}:{line}: {name}" for f, line, name in unreferenced_private_helpers()]
    assert not found, "private helpers nothing refers to:\n" + "\n".join(found)


def shared_random_calls(path):
    """(line, name) for each name of ``random`` other than the ``Random``
    class that the module imports or reads, called or not."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            out += [(node.lineno, a.name) for a in node.names if a.name != "Random"]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "random"
            and node.attr != "Random"
        ):
            out.append((node.lineno, "random." + node.attr))
    return sorted(out)


def test_no_shared_random_state():
    found = []
    for fname in _sources():
        for line, name in shared_random_calls(os.path.join(SRC, fname)):
            found.append(f"src/findim/{fname}:{line}: {name}")
    assert not found, "calls to the shared generator of random:\n" + "\n".join(found)


def test_shared_random_calls_are_found(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "import random\n"
        "from random import Random, shuffle\n"
        "rng = random.Random(3)\n"
        "x = random.randrange(5)\n"
        "random.seed(1)\n"
        "f = random.random\n"
        "def g(r: random.Random):\n"
        "    return r.random()\n"
    )
    assert shared_random_calls(str(src)) == [
        (2, "shuffle"),
        (4, "random.randrange"),
        (5, "random.seed"),
        (6, "random.random"),
    ]


def _writes_into_data(target):
    """Whether an assignment target is a subscript, at any depth, of a
    ``.data`` attribute, inside tuple and starred targets as well."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes_into_data(t) for t in target.elts)
    if isinstance(target, ast.Starred):
        return _writes_into_data(target.value)
    node, depth = target, 0
    while isinstance(node, ast.Subscript):
        node, depth = node.value, depth + 1
    return depth > 0 and isinstance(node, ast.Attribute) and node.attr == "data"


def matrix_writes(path):
    """Lines of the assignments that write into the rows of a ``.data``."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), filename=path)
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        else:
            continue
        if any(_writes_into_data(t) for t in targets):
            out.append(node.lineno)
    return sorted(out)


def test_no_writes_into_matrix_rows():
    found = []
    for fname in _sources():
        for line in matrix_writes(os.path.join(SRC, fname)):
            found.append(f"src/findim/{fname}:{line}")
    assert not found, "writes into the rows of a matrix:\n" + "\n".join(found)


def test_matrix_writes_are_found(tmp_path):
    src = tmp_path / "probe.py"
    src.write_text(
        "m.data[0][1] = 2\n"
        "m.data[0] = row\n"
        "x.y.data[i][j] += 1\n"
        "a, m.data[1][1] = 1, 2\n"
        "del m.data[0]\n"
        "m.data = rows\n"
        "rows[0][1] = 2\n"
        "data[0] = 1\n"
    )
    assert matrix_writes(str(src)) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("field", [GF(3), QQ], ids=repr)
def test_every_matrix_refuses_an_edit(field):
    """A matrix from each public constructor and operation, and those the
    library builds for modules, maps and complexes."""
    m = Matrix(field, 2, 3, [[1, 2, 0], [0, 1, Fraction(1, 2)]])
    sq = Matrix(field, 2, 2, [[1, 1], [0, 1]])
    mats = [
        m,
        Matrix.identity(field, 3),
        Matrix.zeros(field, 2, 2),
        m @ Matrix.identity(field, 3),
        sq @ m,
        m + m,
        m - m,
        -m,
        m.scale(2),
        m.scale(1),
        rref(m)[0],
        solve_matrix(sq, m),
        kernel_basis(m),
        column_space_basis(m),
        m.submatrix([1, 0], [2, 0]),
        m.with_block([1], [0, 2], Matrix(field, 1, 2, [[2, 2]])),
        Matrix.hstack(field, [m, m]),
        Matrix.block_diag(field, [m, sq]),
        m.transpose(),
    ]
    rng = random.Random(3)
    for alg in (a2(field), dual_numbers(field)):
        x = random_perfect_complex(alg, rng)
        hc = HomComplex(x, x)
        mats += [hc.diff_matrix(n) for n in range(-4, 4)]
        c = cone(random_chain_map(x, x, rng))
        contractible = cone(ChainMap.identity(x))
        zmin, qiso = minimize_perfect(direct_sum(alg, [x, contractible]))
        std, iso = standardize_perfect(Complex(alg, x.terms, x.diffs))
        maps = [d for y in (c, contractible, zmin, std) for d in y.diffs.values()]
        maps += list(qiso.comps.values()) + list(iso.comps.values())
        for _, _, d, ker in itertools.islice(resolution_steps(alg.simple(0)), 6):
            maps.append(d)
            mats += ker.arrow_mats.values()
        maps += hom_space(alg.projective(0), alg.projective(0))
        mats += [m for d in maps for m in d.mats]
        mats += [m for p in (alg.projective(0), cohomology(c, 0)) for m in p.arrow_mats.values()]
    for mat in mats:
        assert_frozen(mat)


@pytest.mark.parametrize("field", [GF(3), QQ], ids=repr)
def test_every_module_and_complex_refuses_an_edit(field):
    """The modules and complexes of every constructor, and the dimensions
    remembered on a complex, refuse an edit: a module's dimension vector is
    a tuple, and every mapping is read-only."""
    rng = random.Random(5)
    for alg in (a2(field), dual_numbers(field)):
        p, s = alg.projective(0), alg.simple(0)
        x = random_perfect_complex(alg, rng)
        c = cone(random_chain_map(x, x, rng))
        plain = Complex(alg, x.terms, x.diffs)
        mods = [
            Module(alg, s.dims, {}),
            p,
            s,
            alg.zero_module(),
            alg.dual_module(s),
            projsum_module(alg, (0, 0)),
            direct_sum_modules(alg, [p, s]),
            kernel_of(projective_cover(s)[1])[0],
            quotient_module(p, radical_basis(p))[0],
            cohomology(c, 0),
            module_from_json(alg, module_to_json(p)),
        ]
        for proj, _, _, ker in itertools.islice(resolution_steps(s), 6):
            mods += [proj, ker]
        complexes = [
            plain,
            stalk_complex(s, 0),
            shift(x, 1),
            direct_sum(alg, [x, c]),
            c,
            stupid_truncate(x, -1, 1),
            resolution_complex(s, 4),
            standardize_perfect(plain)[0],
            minimize_perfect(direct_sum(alg, [x, cone(ChainMap.identity(x))]))[0],
            complex_from_json(alg, complex_to_json(c)),
        ]
        support = hom_support(x, c)
        with pytest.raises(dataclasses.FrozenInstanceError):
            support.dims = {}
        for obj in mods + complexes + [cohomology_dims(c), support.dims]:
            assert_frozen(obj)


@pytest.mark.parametrize("field", [GF(3), QQ], ids=repr)
def test_every_chain_map_and_homotopy_refuses_an_edit(field):
    """The chain maps and homotopies of every constructor and operation,
    and their deep and pickled copies, have read-only mappings of maps
    with frozen matrices; a copy has the components of its original."""
    rng = random.Random(7)
    for alg in (a2(field), dual_numbers(field)):
        x = random_perfect_complex(alg, rng)
        y = shift(x, 1)
        plain = Complex(alg, x.terms, x.diffs)
        contractible = cone(ChainMap.identity(x))
        f = random_chain_map(x, x, rng)
        ghosts, composite = ghost_maps(alg.simple(0), 2)
        maps = [
            ChainMap(x, x, {n: ModuleMap.identity(t) for n, t in x.terms.items()}),
            ChainMap.identity(x),
            ChainMap.zero(x, y),
            f.compose(random_chain_map(x, x, rng)),
            f - ChainMap.identity(x),
            *chain_map_basis(x, x),
            f,
            random_chain_map(x, y, rng),
            standardize_perfect(plain)[1],
            minimize_perfect(direct_sum(alg, [x, contractible]))[1],
            *ghosts,
            composite,
            chain_map_from_json(x, x, chain_map_to_json(f)),
        ]
        h = null_homotopy(ChainMap.identity(contractible))
        assert h is not None and h.maps
        homotopies = [h, homotopy_from_json(contractible, contractible, homotopy_to_json(h))]
        for obj in maps + homotopies:
            assert_frozen(obj)
            for c in (copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
                assert_frozen(c)
                got, ref = (c.comps, obj.comps) if isinstance(obj, ChainMap) else (c.maps, obj.maps)
                assert list(got) == list(ref)
                assert all(got[n].mats == ref[n].mats for n in ref)


def test_a_checked_chain_map_cannot_be_edited():
    """Writing a zero component into the identity of the resolution of S_0
    over a2 raises, and the identity still commutes."""
    a = a2()
    x = resolve_to_perfect(a.simple(0), 4)
    f = ChainMap.identity(x)
    with pytest.raises(TypeError):
        f.comps[-1] = ModuleMap.zero(x.term(-1), x.term(-1))
    assert f.commutes() and set(f.comps) == {-1, 0}


@pytest.mark.parametrize(
    "build", [ModuleMap, ChainMap, Complex, chain_map_from_json], ids=lambda b: b.__name__
)
def test_maps_and_complexes_are_built_without_a_check_option(build):
    """Constructors trust their input; the readers of documents check it."""
    assert "check" not in inspect.signature(build).parameters


def test_certificate_from_resolution_has_no_truncation_option():
    """A truncated certificate is built by the tests' own helper."""
    assert list(inspect.signature(certificate_from_resolution).parameters) == ["m", "cutoff"]


@pytest.mark.parametrize(
    "fn", [enumerate_modules, resolution_steps, theorem_samples], ids=lambda f: f.__name__
)
def test_public_generators_stay_generator_functions(fn):
    """The benchmark's tracer counts the items of a generator function in
    a wrapper of its own; a function that returns a generator instead is
    wrapped as a plain call and its observer sees the generator, not a
    count."""
    assert inspect.isgeneratorfunction(fn)
