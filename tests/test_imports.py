"""Every name a module imports is used in that module.

A stdlib-only lint: each module of the package except __init__.py (which
imports to re-export) is parsed, and a name bound by an import statement
that no other node of the module reads is reported."""

import ast
from pathlib import Path

import pytest

import siccert

MODULES = sorted(p for p in Path(siccert.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_lint_sees_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os.path\nfrom fractions import Fraction as F\n"
           "import math\nprint(math.pi, os.sep)\n")
    assert unused_imports(src) == ["line 3: F"]
