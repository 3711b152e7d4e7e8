"""Every module-level import in src/, tests/ and demos/ is used.

A package ``__init__.py`` is exempt: its imports are the package's public
names. A statement marked ``# noqa`` is exempt too, for re-exports and
imports kept for their side effects.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests", "demos")
               for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py")


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


def unused_imports(source: str) -> list:
    """(line, name) for each name a module-level import binds but never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _used_names(tree)
    found = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                found.append((node.lineno, name))
    return found


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
    )
    assert unused_imports(source) == [(1, "os"), (6, "pi"), (7, "osp")]
