"""Every import in src/, tests/ and demos/ is used, and every module-level
definition in the package is named somewhere.

A module-level import must be used somewhere in its module; an import
inside a ``def`` must be used within that ``def``.

A package ``__init__.py`` is exempt from the import check: its imports are
the package's public names. A statement marked ``# noqa`` is exempt too, for
re-exports and imports kept for their side effects.

A ``def``, ``class`` or assigned name at module level of src/eegscrub must be
named outside its own definition by some file in src/, tests/, demos/ or
benchmarks/: as a name, an attribute, or a string holding the name (the
method table and the benchmark's trace targets look functions up by name).
A re-export from a package ``__init__.py`` does not count. Dunders and
definitions marked ``# noqa`` on their first line are exempt.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos")
               for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")
PACKAGE_FILES = sorted((ROOT / "src" / "eegscrub").rglob("*.py"))
REFERENCING_FILES = sorted(p for d in ("src", "tests", "demos", "benchmarks")
                           for p in (ROOT / d).rglob("*.py"))


def _used_names(tree: ast.AST) -> set:
    """Every name read in the tree, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str):
            names |= _used_names(ast.parse(annotation.value))
    return names


def _scoped_imports(tree: ast.Module):
    """(scope, import) for each module-level import, scoped to the module,
    and each import inside a ``def``, scoped to the innermost ``def``."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield tree, node
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        pending = list(scope.body)
        while pending:
            node = pending.pop()
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield scope, node
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                pending.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list:
    """(line, name) for each name an import binds but never uses: anywhere
    in the module for a module-level import, within the ``def`` for an
    import inside one."""
    tree = ast.parse(source)
    lines = source.splitlines()
    found = []
    for scope, node in _scoped_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        used = _used_names(scope)
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                found.append((node.lineno, name))
    return sorted(found)


def _referenced_names(tree: ast.AST) -> set:
    """The names a tree reads, plus attribute names and identifier strings."""
    names = _used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def _definitions(tree: ast.Module, lines: list):
    """(statement index, line, name) of each module-level def, class or
    assigned name that is not a dunder and not marked ``# noqa``."""
    for i, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            names = [node.target.id]
        else:
            continue
        if "# noqa" in lines[node.lineno - 1]:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield i, node.lineno, name


def unused_definitions(source: str, named_elsewhere: set) -> list:
    """(line, name) for each module-level definition in ``source`` that
    neither ``named_elsewhere`` nor the rest of ``source`` names."""
    tree = ast.parse(source)
    per_statement = [_referenced_names(node) for node in tree.body]
    found = []
    for i, line, name in _definitions(tree, source.splitlines()):
        if name in named_elsewhere or any(
                name in names for j, names in enumerate(per_statement)
                if j != i):
            continue
        found.append((line, name))
    return found


@cache
def _names_in(path: Path) -> frozenset:
    """Names a file references; a package ``__init__`` only re-exports."""
    if path.name == "__init__.py":
        return frozenset()
    return frozenset(_referenced_names(ast.parse(
        path.read_text(encoding="utf-8"))))


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_and_honours_noqa():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from json import (  # noqa\n"
        "    dumps,\n"
        ")\n"
        "from math import pi, tau\n"
        "import os.path as osp\n"
        "def f(x: 'Path') -> 'Path':\n"
        "    return tau\n"
        "from pathlib import Path\n"
        "def used_locally():\n"
        "    from math import e\n"
        "    return e\n"
        "def unused_locally():\n"
        "    if True:\n"
        "        from math import e\n"
        "        import json  # noqa\n"
        "    return 0\n"
    )
    assert unused_imports(source) == [(1, "os"), (6, "pi"), (7, "osp"),
                                      (16, "e")]


@pytest.mark.parametrize("path", PACKAGE_FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_definitions(path):
    elsewhere = set().union(*(_names_in(p) for p in REFERENCING_FILES
                              if p != path))
    assert unused_definitions(path.read_text(encoding="utf-8"),
                              elsewhere) == []


def test_detects_unused_definitions_and_honours_noqa():
    source = (
        "import os\n"
        "LIMIT = 3\n"
        "UNUSED = 4\n"
        "KEPT = 5  # noqa\n"
        "__version__ = '1'\n"
        "def used(x):\n"
        "    return x + LIMIT\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "def by_name():\n"
        "    pass\n"
        "TABLE = {'f': 'by_name'}\n"
        "class Unused:\n"
        "    pass\n"
        "def by_attribute():\n"
        "    pass\n"
        "SEP = os.by_attribute\n"
    )
    elsewhere = {"used", "TABLE", "SEP"}
    assert unused_definitions(source, elsewhere) == [
        (3, "UNUSED"), (8, "recursive"), (13, "Unused")]
    assert unused_definitions(source, set()) == [
        (3, "UNUSED"), (6, "used"), (8, "recursive"), (12, "TABLE"),
        (13, "Unused"), (17, "SEP")]
