"""Every name a library module imports, and every private name it defines
at module level, is referenced in that module; no library module calls
np.unique by rows; S_n is listed by one function; orbits are walked by one
function; and every import sits at module level but the one that breaks an
import cycle.

``__init__.py`` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "biquandles"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _loaded(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _loaded(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def unused_private_names(source):
    """Module-level _names (assigned, def or class) never loaded in the module."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    used = _loaded(tree)
    return sorted(
        (line, name)
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in used
    )


def test_scanner_flags_an_unused_name():
    src = "from os import path, sep\nimport json\nprint(sep)\n"
    assert unused_imports(src) == [(1, "path"), (2, "json")]


def test_scanner_flags_an_unused_private_name():
    src = "_A = 1\n_B, C = 2, 3\n\ndef _f():\n    return _A\n\nclass _K:\n    pass\n\n__all__ = []\n"
    assert unused_private_names(src) == [(2, "_B"), (4, "_f"), (7, "_K")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_private_names(path):
    assert unused_private_names(path.read_text()) == []


def unique_row_calls(source):
    """Lines calling np.unique (or numpy.unique) with an axis argument:
    sorted distinct rows have one path, core.unique_rows."""
    tree = ast.parse(source)
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "unique"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
        and any(kw.arg == "axis" for kw in node.keywords)
    )


def test_scanner_flags_np_unique_by_rows():
    src = "import numpy as np\nnp.unique(a)\nnp.unique(a, axis=0)\nnp.unique(a, return_index=True)\nnumpy.unique(b, axis=1)\n"
    assert unique_row_calls(src) == [3, 5]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_np_unique_by_rows(path):
    assert unique_row_calls(path.read_text()) == []


def permutation_calls(source):
    """(line, enclosing function) of each call of itertools.permutations,
    as an attribute or by a name imported from itertools; a call outside
    any function is in "<module>"."""
    tree = ast.parse(source)
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "itertools"
        for alias in node.names
        if alias.name == "permutations"
    }

    def calls(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from calls(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                by_attribute = isinstance(f, ast.Attribute) and f.attr == "permutations" and getattr(f.value, "id", None) == "itertools"
                if by_attribute or (isinstance(f, ast.Name) and f.id in names):
                    yield child.lineno, where
            yield from calls(child, where)

    return sorted(calls(tree, "<module>"))


def test_scanner_flags_permutation_calls():
    src = (
        "import itertools\n"
        "from itertools import permutations as perms, product\n"
        "itertools.permutations(range(2))\n"
        "def f(n):\n"
        "    def g():\n"
        "        return perms(range(n))\n"
        "    return list(itertools.permutations(range(n))), product([1])\n"
        "x.permutations(3)\n"
    )
    assert permutation_calls(src) == [(3, "<module>"), (6, "g"), (7, "f")]


def test_one_symmetric_group_listing():
    found = [(path.name, where) for path in MODULES for _, where in permutation_calls(path.read_text())]
    assert found == [("groups.py", "_permutation_rows")]


# orbit walks of their own, beside _search.walk_orbits: a union-find and
# the cycle walks
OWN_ORBIT_WALKS = ("_union_roots", "_column_cycle_type", "_orbits")


def orbit_walk_definitions(source):
    """(line, name) of each function that walks orbits of its own: one
    named in OWN_ORBIT_WALKS, or a function named find nested in another
    (a union-find's)."""
    tree = ast.parse(source)

    def defs(node, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name in OWN_ORBIT_WALKS or (nested and child.name == "find"):
                    yield child.lineno, child.name
                yield from defs(child, True)
            else:
                yield from defs(child, nested)

    return sorted(defs(tree, False))


def test_scanner_flags_orbit_walks():
    src = (
        "def find(a):\n"
        "    return a\n"
        "def roots(n):\n"
        "    def find(a):\n"
        "        return a\n"
        "    return find\n"
        "class K:\n"
        "    def _orbits(self):\n"
        "        def find():\n"
        "            pass\n"
        "    def find(self):\n"
        "        pass\n"
        "def _union_roots(n, cols):\n"
        "    pass\n"
        "_column_cycle_type = None\n"
    )
    assert orbit_walk_definitions(src) == [(4, "find"), (8, "_orbits"), (9, "find"), (13, "_union_roots")]


def test_one_orbit_walk():
    found = [(path.name, line, name) for path in MODULES for line, name in orbit_walk_definitions(path.read_text())]
    assert found == []


def local_imports(source):
    """(line, enclosing function) of each import statement inside a
    function."""
    tree = ast.parse(source)

    def imports(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from imports(child, child.name)
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)) and where is not None:
                yield child.lineno, where
            yield from imports(child, where)

    return sorted(imports(tree, None))


def test_scanner_flags_local_imports():
    src = (
        "import json\n"
        "def f():\n"
        "    import numpy as np\n"
        "    def g():\n"
        "        from .core import x\n"
        "    return np\n"
        "class K:\n"
        "    def m(self):\n"
        "        if True:\n"
        "            import os\n"
    )
    assert local_imports(src) == [(3, "f"), (5, "g"), (10, "m")]


def test_imports_at_module_level():
    # combinators._holomorph imports automorphisms inside the function:
    # automorphisms imports combinators, so a module-level import would be
    # a cycle
    found = [(path.name, where) for path in MODULES for _, where in local_imports(path.read_text())]
    assert found == [("combinators.py", "_holomorph")]
