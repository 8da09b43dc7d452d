"""Static hygiene of the library source: no unused imports, no unused
private helpers, and no draws from the shared generator of ``random``.

A stdlib ``ast`` scan of every module in src/findim except the package
``__init__.py``, whose imports are its re-exports.  An imported name counts
as used when it appears as a name anywhere in the module, including inside
string annotations.  A private module-level function or class (one name
with a single leading underscore) counts as used when some module of the
package names it, as a name or an attribute, outside its own definition.
Random choices come from ``random.Random`` instances with a seed, never
from the module-level functions of ``random``, whose shared state any
caller can reseed or advance.
"""

import ast
import os

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
