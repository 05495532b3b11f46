"""The names of theta_disk that the benchmark in ``perfbench/`` reaches.

The benchmark runs outside the test suite, so a rename in ``src/`` would
otherwise break its traced runs and negative controls only when the
benchmark runs.  These tests read the benchmark's files without running
them, and replay the CLI requests its oracle pins.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from theta_disk.cli import main
from theta_disk.verify import CHECKS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))


def load_script(stem: str):
    """``perfbench/<stem>.py`` as a module, without perfbench on the path."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{stem}", PERFBENCH / f"{stem}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def theta_disk_imports(path: Path) -> list[tuple[str, str, str]]:
    """``(module, name, bound as)`` for each name imported from theta_disk."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "theta_disk"
        ):
            for alias in node.names:
                found.append((node.module, alias.name, alias.asname or alias.name))
    return found


def test_the_benchmark_scripts_are_found():
    assert PERFBENCH / "tracer.py" in SCRIPTS
    assert PERFBENCH / "worker.py" in SCRIPTS


def test_traced_functions_and_counted_classes_exist():
    tracer = load_script("tracer")
    assert tracer.GROUPS and tracer.CONSTRUCTED
    for group, (module, functions, _) in tracer.GROUPS.items():
        mod = importlib.import_module(f"theta_disk.{module}")
        for name in functions:
            assert callable(getattr(mod, name, None)), f"{group}: {module}.{name}"
    for counter, (module, cls_name) in tracer.CONSTRUCTED.items():
        cls = getattr(importlib.import_module(f"theta_disk.{module}"), cls_name, None)
        assert isinstance(cls, type), f"{counter}: {module}.{cls_name}"
        # the tracer counts constructions through the initializer hook
        assert "__post_init__" in vars(cls), f"{counter}: no __post_init__"


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_imported_names_exist(script):
    imports = theta_disk_imports(script)
    modules = {}
    for module, name, bound in imports:
        mod = importlib.import_module(module)
        assert hasattr(mod, name), f"{script.name}: {module}.{name}"
        if inspect.ismodule(getattr(mod, name)):
            modules[bound] = getattr(mod, name)
    # attributes read from an imported module, such as ``cli.vee_obj``
    for node in ast.walk(ast.parse(script.read_text())):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        ):
            where = f"{script.name}: {node.value.id}.{node.attr}"
            assert hasattr(modules[node.value.id], node.attr), where


def test_worker_imports_are_checked():
    names = {name for _, name, _ in theta_disk_imports(PERFBENCH / "worker.py")}
    assert {"CHECKS", "vee", "enumerate_morphisms", "xi_interval"} <= names


def test_negative_control_seams_exist():
    """Every keyword the worker's negative controls pass to a check is a
    parameter of that check."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    [corrupt] = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "corrupt" for t in node.targets)
    ]
    seams = {
        ast.literal_eval(check): [ast.literal_eval(k) for k in seam.keys]
        for check, seam in zip(corrupt.keys, corrupt.values)
    }
    assert set(seams) == set(CHECKS)
    for check, keywords in seams.items():
        parameters = inspect.signature(CHECKS[check]).parameters
        for keyword in keywords:
            assert keyword in parameters, f"{check}: {keyword}"


def test_cli_answers_every_oracle_request():
    """Every request of the cli-requests universe exits and prints as
    ``perfbench/cli_oracle.json`` pins, so a drift in CLI output fails
    here and not only in a benchmark run."""
    w = load_script("workloads")
    oracle = w.load_json(w.ORACLE_PATH)
    universe = w.cli_universe(w.cli_pools())
    assert len(universe) == 1471
    assert {w.request_key(argv) for argv in universe} == set(oracle)
    wrong = []
    for argv in universe:
        code, stdout, _ = w.call_cli(main, argv)
        if [code, w.digest(stdout)] != oracle[w.request_key(argv)]:
            wrong.append((argv, code))
    assert wrong == []
