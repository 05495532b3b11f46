"""Write the benchmark's correctness pins: ``pins.json`` and ``cli_oracle.json``.

Run from the repository root, at a commit whose outputs are trusted:

    PYTHONPATH=src python3 perfbench/pin.py

``pins.json`` holds the instance counts of every (check, bounds) pair the
batch workloads run; each check must pass.  ``cli_oracle.json`` holds, for
every request of the cli-requests universe, the expected exit status and
a digest of the expected stdout.  Expected outputs come from the library
functions and from the reference renderers below, not from the CLI; the
script refuses to write the oracle unless ``theta_disk.cli.main`` agrees
with them on every request.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as w
from theta_disk.disk import Disk, enumerate_disk_morphisms, phi_inverse_obj, phi_obj
from theta_disk.forest import LevelTree
from theta_disk.globular import GlobCard, GlobMor, enumerate_glob_morphisms
from theta_disk.itree import INTERVAL, ITreeObj, enumerate_morphisms, vee, wedge
from theta_disk.labeled import (
    LabeledTree,
    LabeledTreeMor,
    con_dualize,
    con_dualize_mor,
    enumerate_labeled_mors,
    xi_interval,
    xi_inverse,
    xi_ordinal,
)
from theta_disk.ograph import (
    OGraph,
    enumerate_ograph_morphisms,
    gamma,
    gamma_prime,
    upsilon,
    upsilon_prime,
)
from theta_disk.omega import (
    Cell,
    EnrichedCell,
    OmegaPresentation,
    comparison_L,
    enumerate_cells,
    psi_obj,
)
from theta_disk.ordinal import (
    OrdMap,
    Ordinal,
    enumerate_interval_maps,
    enumerate_ord_maps,
    vee_map,
    vee_obj,
    wedge_map,
    wedge_obj,
)
from theta_disk.verify import CHECKS, Bounds

PARSE = {
    "ordinal": Ordinal.from_dict,
    "ordmap": OrdMap.from_dict,
    "tree": LevelTree.from_dict,
    "disk": Disk.from_dict,
    "itree": ITreeObj.from_dict,
    "globcard": GlobCard.from_dict,
    "globmor": GlobMor.from_dict,
    "ograph": OGraph.from_dict,
    "labeled-tree": LabeledTree.from_dict,
    "labeled-tree-mor": LabeledTreeMor.from_dict,
    "cell": Cell.from_dict,
    "enriched-cell": EnrichedCell.from_dict,
    "omega-presentation": OmegaPresentation.from_dict,
}

CONVERT = {
    ("vee", Ordinal): vee_obj,
    ("vee", OrdMap): vee_map,
    ("vee", ITreeObj): vee,
    ("wedge", Ordinal): wedge_obj,
    ("wedge", OrdMap): wedge_map,
    ("wedge", ITreeObj): wedge,
    ("phi", Disk): phi_obj,
    ("phi-inverse", ITreeObj): phi_inverse_obj,
    ("gamma", GlobCard): gamma,
    ("gamma-prime", OGraph): gamma_prime,
    ("upsilon", ITreeObj): upsilon,
    ("upsilon-prime", OGraph): upsilon_prime,
    ("xi", LabeledTree): lambda t: (
        xi_interval(t) if t.flavor == INTERVAL else xi_ordinal(t)
    ),
    ("xi-inverse", ITreeObj): xi_inverse,
    ("L", Cell): comparison_L,
    ("psi", ITreeObj): psi_obj,
    ("con-dualize", LabeledTree): con_dualize,
    ("con-dualize", LabeledTreeMor): con_dualize_mor,
}

HOMS = {
    Disk: enumerate_disk_morphisms,
    ITreeObj: enumerate_morphisms,
    GlobCard: enumerate_glob_morphisms,
    OGraph: enumerate_ograph_morphisms,
    LabeledTree: enumerate_labeled_mors,
}

USAGE = (2, "")


class Usage(Exception):
    """The request must end with exit status 2 and nothing on stdout."""


def canon(data: dict) -> str:
    return json.dumps(data, sort_keys=True) + "\n"


def load(text: str):
    try:
        data = json.loads(text)
    except ValueError as exc:
        raise Usage from exc
    if not isinstance(data, dict) or data.get("kind") not in PARSE:
        raise Usage
    try:
        return PARSE[data["kind"]](data)
    except (ValueError, KeyError, TypeError) as exc:
        raise Usage from exc


def level_rows(data: dict, kind: str):
    """Per-vertex labels of a level-tree-shaped object, from its dict."""
    levels, parents = data["levels"], data["parents"]

    def label(n: int, i: int, sep: str) -> str:
        head = f"({n},{sep}{i})"
        if kind == "labeled-tree":
            return f"{head} [{data['labels'][n][i]}]"
        if kind == "disk" and n < len(parents):
            return f"{head} fiber {parents[n].count(i)}"
        return head

    def children(n: int, i: int) -> list[int]:
        return [j for j, p in enumerate(parents[n]) if p == i] if n < len(parents) else []

    return levels, parents, label, children


def render_text(data: dict) -> str:
    kind = data["kind"]
    lines: list[str] = []
    if kind == "itree":
        def walk_itree(node: dict, depth: int) -> None:
            lines.append("  " * depth + f"[{node['root']}]")
            for child in node["children"]:
                walk_itree(child, depth + 1)

        walk_itree(data, 0)
    else:
        levels, _, label, children = level_rows(data, kind)

        def walk(n: int, i: int, depth: int) -> None:
            lines.append("  " * depth + label(n, i, " "))
            for j in children(n, i):
                walk(n + 1, j, depth + 1)

        for root in range(levels[0]):
            walk(0, root, 0)
    return "\n".join(lines) + "\n"


def render_dot(data: dict) -> str:
    kind = data["kind"]
    lines = ["digraph tree {", "  rankdir=TB;", "  node [shape=box, ordering=out];"]
    if kind == "itree":
        count = [0]

        def walk(node: dict) -> int:
            me = count[0]
            count[0] += 1
            lines.append(f'  n{me} [label="[{node["root"]}]"];')
            for slot, child in enumerate(node["children"]):
                lines.append(f'  n{me} -> n{walk(child)} [label="{slot}"];')
            return me

        walk(data)
    else:
        levels, parents, label, _ = level_rows(data, kind)
        for n, size in enumerate(levels):
            lines += [f'  v{n}_{i} [label="{label(n, i, "")}"];' for i in range(size)]
            members = " ".join(f"v{n}_{i};" for i in range(size))
            lines.append(f"  {{ rank=same; {members} }}")
        for n, row in enumerate(parents):
            lines += [f"  v{n}_{p} -> v{n + 1}_{c};" for c, p in enumerate(row)]
    lines.append("}")
    return "\n".join(lines) + "\n"


def options(argv: list[str], flags: dict[str, tuple | None]):
    """Split ``argv`` into flag values and positionals; ``flags`` maps each
    flag to its allowed values (``None`` for any)."""
    values, rest = {}, []
    it = iter(argv)
    for arg in it:
        if arg in flags:
            value = next(it, None)
            allowed = flags[arg]
            if value is None or (allowed is not None and value not in allowed):
                raise Usage
            values[arg] = value
        else:
            rest.append(arg)
    return values, rest


def dim_bound(values: dict) -> int:
    text = values.get("--bounds")
    if text is None:
        return 3
    key, _, raw = text.partition("=")
    if key != "dim" or not raw.lstrip("-").isdigit() or int(raw) < 0:
        raise Usage
    return int(raw)


def reference(argv: list[str]) -> tuple[int, str]:
    """The expected exit status and stdout of ``theta-disk argv``."""
    try:
        return 0, respond(argv)
    except Usage:
        return USAGE


def respond(argv: list[str]) -> str:
    verb, args = argv[0], argv[1:]
    if verb == "convert":
        values, rest = options(args, {"--functor": tuple(w.FUNCTOR_KINDS)})
        if "--functor" not in values or len(rest) != 1:
            raise Usage
        obj = load(rest[0])
        fn = CONVERT.get((values["--functor"], type(obj)))
        if fn is None:
            raise Usage
        try:
            return canon(fn(obj).to_dict())
        except (ValueError, KeyError, TypeError) as exc:
            raise Usage from exc
    if verb == "hom-count":
        values, rest = options(args, {"--kind": ("interval", "ordinal")})
        if len(rest) != 2:
            raise Usage
        a, b = load(rest[0]), load(rest[1])
        if type(a) is not type(b):
            raise Usage
        if isinstance(a, Ordinal):
            homs = (
                enumerate_interval_maps
                if values.get("--kind") == "interval"
                else enumerate_ord_maps
            )
        elif type(a) in HOMS:
            homs = HOMS[type(a)]
        else:
            raise Usage
        try:
            count = len(homs(a, b))
        except (ValueError, KeyError, TypeError) as exc:
            raise Usage from exc
        return canon({"kind": "hom-count", "count": count})
    if verb == "cells":
        values, rest = options(args, {"--bounds": None})
        if len(rest) != 1:
            raise Usage
        dim = dim_bound(values)
        base = load(rest[0])
        if isinstance(base, OGraph):
            base = gamma_prime(base)
        if not isinstance(base, GlobCard):
            raise Usage
        counts = [len(enumerate_cells(base, n)) for n in range(dim + 1)]
        return canon({"kind": "cell-counts", "counts": counts})
    if verb == "render":
        values, rest = options(args, {"--format": ("text", "dot", "json")})
        if len(rest) != 1:
            raise Usage
        data = load(rest[0]).to_dict()
        fmt = values.get("--format", "text")
        if fmt == "json":
            return canon(data)
        if data["kind"] not in w.TREE_KINDS:
            raise Usage
        return render_text(data) if fmt == "text" else render_dot(data)
    raise Usage


def pin_checks() -> dict:
    pins = {}
    for pairs in w.BATCH.values():
        for check, bounds in pairs:
            key = w.pin_key(check, bounds)
            if key in pins:
                continue
            report = CHECKS[check](
                Bounds(
                    max_height=bounds["height"],
                    max_degree=bounds["degree"],
                    max_label=bounds["label"],
                    max_vertices=bounds["vertices"],
                    max_dim=bounds["dim"],
                )
            )
            if not report.passed:
                sys.exit(f"{key} fails: {report.counterexample}")
            pins[key] = dict(sorted(report.instances.items()))
            print(f"pinned {key}: {pins[key]}")
    return pins


def pin_cli() -> dict:
    from theta_disk.cli import main

    oracle, disagreements = {}, 0
    for argv in w.cli_universe(w.cli_pools()):
        code, stdout = reference(argv)
        actual_code, actual_stdout, _ = w.call_cli(main, argv)
        if (code, stdout) != (actual_code, actual_stdout):
            disagreements += 1
            print(f"reference and CLI disagree on {argv}:", file=sys.stderr)
            print(f"  reference {code} {stdout!r}", file=sys.stderr)
            print(f"  cli       {actual_code} {actual_stdout!r}", file=sys.stderr)
        oracle[w.request_key(argv)] = [code, w.digest(stdout)]
    if disagreements:
        sys.exit(f"{disagreements} disagreements; oracle not written")
    good = sum(1 for code, _ in oracle.values() if code == 0)
    print(f"pinned {len(oracle)} cli requests ({good} exit 0)")
    return dict(sorted(oracle.items()))


def main() -> None:
    os.environ.pop("THETA_DISK_BOUNDS", None)
    pins = pin_checks()
    oracle = pin_cli()
    w.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    w.ORACLE_PATH.write_text(json.dumps(oracle, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
