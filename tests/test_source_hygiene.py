"""Source hygiene of the ``theta_disk`` package: line width and imports.

Every line of a module is at most 88 characters, and no module but
``__init__.py``, which re-exports, imports a name it never uses.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "theta_disk"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]
MAX_LINE = 88


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of that import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def test_the_modules_are_found():
    assert PACKAGE / "__init__.py" in SOURCES
    assert PACKAGE / "forest.py" in MODULES
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_lines_are_at_most_88_characters(path):
    lines = path.read_text().splitlines()
    assert [n for n, line in enumerate(lines, 1) if len(line) > MAX_LINE] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in used
    }
    assert unused == {}


def test_an_unused_import_is_caught():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from json import dumps, loads as read\n"
        "read(os.sep)\n"
    )
    assert imported_names(tree) == {"os": 2, "dumps": 3, "read": 3}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert set(imported_names(tree)) - used == {"dumps"}
