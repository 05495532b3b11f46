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
DEFINITION = (ast.FunctionDef, ast.ClassDef)

# Module-level functions and classes that no live code of the package
# refers to: API kept for the tests and for laws not yet checked.
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
    # Reached only from the definitions above, or from each other.
    "forest.compose_tree_maps",
    "forest.identity_tree_map",
    "omega._edge_count",
    "omega._find_split",
    "omega.enriched_identity",
    "omega.hom_graph_count",
    "ordinal.identity",
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
    """``module.name`` of each module-level function or class that no live
    code of ``modules`` refers to.  Live code is module-level code outside
    any definition, the checks registered with ``@_check``, and every
    definition that live code refers to; so a definition that only
    unreferenced definitions refer to, such as a mutually recursive pair,
    is unreferenced too.

    A bare name refers to its module's own definition of that name, else
    to the one it is imported as (under an alias too), else, like an
    attribute, to every definition of that name.
    """
    defs: dict[str, ast.AST] = {}
    by_name: dict[str, set[str]] = {}
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, DEFINITION):
                defs[f"{module}.{node.name}"] = node
                by_name.setdefault(node.name, set()).add(f"{module}.{node.name}")
    # What the code of each definition refers to; ``None`` keys the
    # module-level code outside any definition.
    edges: dict[str | None, set[str]] = {}
    for module, tree in modules.items():
        scope = {
            alias.asname or alias.name: f"{node.module.split('.')[-1]}.{alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names
        }
        own = [node.name for node in tree.body if isinstance(node, DEFINITION)]
        scope |= {name: f"{module}.{name}" for name in own}
        for top in tree.body:
            owner = scope[top.name] if isinstance(top, DEFINITION) else None
            out = edges.setdefault(owner, set())
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id in scope:
                    out.add(scope[node.id])
                elif isinstance(node, (ast.Name, ast.Attribute)):
                    out |= by_name.get(getattr(node, "id", None) or node.attr, set())
    live = {
        key
        for key, node in defs.items()
        if any(
            isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_check"
            for d in node.decorator_list
        )
    }
    todo = [None, *live]
    while todo:
        for key in edges.get(todo.pop(), set()) - live:
            live.add(key)
            todo.append(key)
    return set(defs) - live


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


def test_code_only_unreferenced_code_calls_is_caught():
    modules = {
        "a": ast.parse(
            "def ping(n):\n    return pong(n - 1)\n"
            "def pong(n):\n    return ping(n) + helper()\n"
            "def helper():\n    pass\n"
            "def shared():\n    pass\n"
            "def live():\n    pass\n"
            "TABLE = [live]\n"
        ),
        "b": ast.parse(
            "from a import shared as reused, ping\n"
            "def orphan():\n    return ping(1)\n"
            "@_check('x')\ndef registered():\n    return reused()\n"
        ),
    }
    assert unreferenced(modules) == {"a.ping", "a.pong", "a.helper", "b.orphan"}


def test_a_name_refers_to_its_own_module_first():
    # ``b.rec`` calls itself, not ``a.rec``; an attribute may mean either.
    modules = {
        "a": ast.parse("def rec():\n    pass\ndef via():\n    pass\n"),
        "b": ast.parse("def rec():\n    return rec()\nx.via\n"),
    }
    assert unreferenced(modules) == {"a.rec", "b.rec"}
