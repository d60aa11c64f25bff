"""numpy is the package's only runtime dependency: every import in
src/gslda_cascade is the standard library, numpy or the package itself."""

import ast
import sys
from pathlib import Path

import pytest

import gslda_cascade

SOURCES = sorted(Path(gslda_cascade.__file__).parent.glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "gslda_cascade"}


def imported_roots(tree):
    """Top-level module names of the absolute imports in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "features.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(set(imported_roots(tree)) - ALLOWED) == []


def test_guard_catches_a_foreign_import():
    tree = ast.parse("import os\nfrom scipy import linalg\nfrom . import features\nimport numpy.linalg\n")
    assert sorted(set(imported_roots(tree)) - ALLOWED) == ["scipy"]
