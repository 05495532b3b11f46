"""Source hygiene of the ``theta_disk`` package: line width, imports and
code with no caller.

Every line of a module is at most 88 characters, and no module but
``__init__.py``, which re-exports, imports a name it never uses.  Every
module-level function or class is referred to somewhere in the package
outside its own body, save a pinned set that only the tests call.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "theta_disk"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]
MAX_LINE = 88

# Module-level functions and classes that nothing in the package refers
# to: API kept for the tests and for laws not yet checked.
UNREFERENCED = {
    "disk.compose_disk_mors",
    "disk.identity_disk_mor",
    "globular.linearize",
    "itree.compose",
    "itree.identity",
    "labeled.compose_labeled",
    "labeled.identity_labeled",
    "ograph.compose_ograph_mors",
    "ograph.identity_ograph_mor",
    "omega._Evaluator",
}


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


def unreferenced(modules: dict[str, ast.Module]) -> set[str]:
    """``module.name`` of each module-level function or class that no code
    of ``modules`` refers to, by name or attribute, outside its own body.

    A check registered with ``@_check`` counts as referred to.
    """
    refs: dict[str, list[ast.AST]] = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                refs.setdefault(node.attr, []).append(node)
    found = set()
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_check"
                for d in node.decorator_list
            ):
                continue
            own = {id(n) for n in ast.walk(node)}
            if all(id(r) in own for r in refs.get(node.name, ())):
                found.add(f"{module}.{node.name}")
    return found


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


def test_only_the_pinned_definitions_have_no_caller():
    modules = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    assert unreferenced(modules) == UNREFERENCED


def test_a_definition_with_no_caller_is_caught():
    modules = {
        "a": ast.parse(
            "def rec(n):\n    return rec(n - 1)\n"
            "def used():\n    pass\n"
            "class Kept:\n    pass\n"
            "@_check('x')\ndef registered():\n    pass\n"
        ),
        "b": ast.parse("import a\nused()\na.Kept\n"),
    }
    assert unreferenced(modules) == {"a.rec"}
