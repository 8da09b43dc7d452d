"""Static hygiene of the library source: no unused imports, no unused
private helpers, no draws from the shared generator of ``random``, and no
write into the rows of a matrix; and, at run time, matrices that refuse
an edit.

A stdlib ``ast`` scan of every module in src/findim except the package
``__init__.py``, whose imports are its re-exports.  An imported name counts
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
import itertools
import os
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
    cone,
    direct_sum,
    hom_space,
    random_chain_map,
    random_perfect_complex,
)
from findim.certificates import minimize_perfect
from findim.complexes import cohomology, standardize_perfect
from findim.linalg import column_space_basis, kernel_basis, rref, solve_matrix
from findim.modules import resolution_steps
from util import a2, assert_frozen, dual_numbers

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "findim")


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
    found = []
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py") and fname != "__init__.py":
            for line, name in unused_imports(os.path.join(SRC, fname)):
                found.append(f"src/findim/{fname}:{line}: {name}")
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
        std, iso = standardize_perfect(Complex(alg, x.terms, x.diffs, check=False))
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
