"""Command-line front end: enumerate, convert, count, verify, render."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

from theta_disk.disk import (
    Disk,
    count_disk_morphisms,
    phi_inverse_obj,
    phi_obj,
)
from theta_disk.forest import LevelTree, fibers
from theta_disk.globular import GlobCard, GlobMor
from theta_disk.itree import (
    INTERVAL,
    ITreeObj,
    count_morphisms,
    vee,
    wedge,
)
from theta_disk.labeled import (
    LabeledTree,
    LabeledTreeMor,
    con_dualize,
    con_dualize_mor,
    count_labeled_mors,
    xi_interval,
    xi_inverse,
    xi_ordinal,
)
from theta_disk.ograph import (
    OGraph,
    count_ograph_morphisms,
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
    count_interval_maps,
    count_ord_maps,
    json_str,
    printable,
    vee_map,
    vee_obj,
    wedge_map,
    wedge_obj,
)
from theta_disk.verify import (
    CHECKS,
    POOLS,
    Bounds,
    parse_bounds,
    render_reports,
    run_all,
)

_PARSERS = {
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

_INPUT_HELP = (
    'Objects are JSON with a "kind" field, given as a file path or inline.\n'
    "Examples:\n"
    '  {"kind": "ordinal", "n": 3}\n'
    '  {"kind": "ordmap", "dom": 1, "cod": 2, "images": [0, 2]}\n'
    '  {"kind": "tree", "levels": [1, 2], "parents": [[0, 0]]}\n'
    '  {"kind": "disk", "levels": [1], "parents": [], "fiber_sizes": []}\n'
    '  {"kind": "itree", "flavor": "interval", "root": 0, "children": []}\n'
    '  {"kind": "globcard", "levels": [1], "src": [], "tgt": []}\n'
    '  {"kind": "ograph", "vertices": 2, "edges": [{"kind": "ograph", '
    '"vertices": 1, "edges": []}]}\n'
    '  {"kind": "labeled-tree", "flavor": "interval", "levels": [1], '
    '"parents": [], "labels": [[0]]}\n'
    '  {"kind": "cell", "base": {...}, "shape": {...}, "map": [...], "dim": 1}\n'
)

_BOUNDS_HELP = (
    "comma-separated caps: height=..,degree=..,label=..,vertices=..,dim=.. "
    "(missing entries keep the defaults; THETA_DISK_BOUNDS supplies a base)"
)


def _load_object(source: str):
    """Parse an object given inline or as a file path.

    An argument that starts with ``{`` (after blanks) is inline JSON and is
    parsed without looking at the filesystem.
    """
    raw = source
    if not source.lstrip().startswith("{"):
        path = Path(source)
        try:
            is_file = path.is_file()
        except OSError:
            is_file = False
        if is_file:
            raw = path.read_text()
    data = json.loads(raw)
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError('objects are JSON dictionaries with a "kind" field')
    kind = json_str(data["kind"])
    if kind not in _PARSERS:
        raise ValueError(f"unknown object kind {kind!r}")
    return _PARSERS[kind](data)


def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _resolve_bounds(flag: str | None) -> Bounds:
    base = parse_bounds(os.environ.get("THETA_DISK_BOUNDS", ""))
    return parse_bounds(flag or "", base=base)


def _functors() -> dict:
    """The function that each functor name applies to each input type.

    Built on every call from the module globals, so that a function
    rebound on this module (a test double, a tracing wrapper) is the one
    that runs.
    """
    return {
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
        ("xi", LabeledTree): _xi,
        ("xi-inverse", ITreeObj): xi_inverse,
        ("L", Cell): comparison_L,
        ("psi", ITreeObj): psi_obj,
        ("con-dualize", LabeledTree): con_dualize,
        ("con-dualize", LabeledTreeMor): con_dualize_mor,
    }


def _xi(t: LabeledTree) -> ITreeObj:
    """``xi`` of the flavor that ``t`` carries."""
    return xi_interval(t) if t.flavor == INTERVAL else xi_ordinal(t)


FUNCTORS = tuple(dict.fromkeys(name for name, _ in _functors()))


ENUMERATIONS = tuple(POOLS)


def _apply_functor(name: str, obj):
    functor = _functors().get((name, type(obj)))
    if functor is None:
        raise ValueError(
            f"functor {name!r} does not apply to {type(obj).__name__} inputs"
        )
    return functor(obj)


def _hom_count(a, b, maps: str | None) -> int:
    # Every kind is counted by formula or recurrence, without listing the
    # morphisms; cardinals are counted through their ordinal graphs.
    counters = {
        Ordinal: count_interval_maps if maps == "interval" else count_ord_maps,
        OGraph: count_ograph_morphisms,
        Disk: count_disk_morphisms,
        ITreeObj: count_morphisms,
        GlobCard: lambda a, b: count_ograph_morphisms(gamma(a), gamma(b)),
        LabeledTree: count_labeled_mors,
    }
    kind = type(a)
    if kind is not type(b):
        raise ValueError(
            "hom-count requires two objects of the same kind; got "
            f"{kind.__name__} and {type(b).__name__}"
        )
    if kind not in counters:
        raise ValueError(
            f"hom-count does not count {kind.__name__} morphisms; it counts "
            "them between two objects of kind ordinal, ograph, disk, itree, "
            "globcard or labeled-tree"
        )
    if maps is not None and kind is not Ordinal:
        raise ValueError(
            f"--kind applies only to a pair of ordinals; got two "
            f"{kind.__name__} objects"
        )
    return printable(counters[kind](a, b))


def _level_view(obj) -> tuple[LevelTree, Callable[[int, int], str]]:
    """The level tree drawn for a tree-shaped object, and the note that
    follows the position of vertex ``(n, i)`` in its label."""
    if type(obj) is LevelTree:
        return obj, lambda n, i: ""
    if type(obj) is Disk:
        return obj.tree, lambda n, i: (
            f" fiber {len(fibers(obj.tree, n)[i])}" if n < obj.tree.depth else ""
        )
    if type(obj) is LabeledTree:
        return obj.tree, lambda n, i: f" [{obj.label((n, i)).n}]"
    raise ValueError(
        f"rendering covers tree-shaped objects, not {type(obj).__name__}"
    )


def _render_text(obj) -> str:
    lines: list[str] = []
    if type(obj) is ITreeObj:
        def rec(node: ITreeObj, depth: int) -> None:
            lines.append("  " * depth + f"[{node.root.n}]")
            for child in node.children:
                rec(child, depth + 1)

        rec(obj, 0)
    else:
        tree, note = _level_view(obj)

        def walk(level: int, index: int, depth: int) -> None:
            lines.append("  " * depth + f"({level}, {index}){note(level, index)}")
            if level < tree.depth:
                for child in fibers(tree, level)[index]:
                    walk(level + 1, child, depth + 1)

        for root in range(tree.levels[0]):
            walk(0, root, 0)
    return "\n".join(lines) + "\n"


def _render_dot(obj) -> str:
    lines = [
        "digraph tree {",
        "  rankdir=TB;",
        "  node [shape=box, ordering=out];",
    ]
    if type(obj) is ITreeObj:
        counter = iter(range(10**9))

        def rec(node: ITreeObj) -> int:
            my_id = next(counter)
            lines.append(f'  n{my_id} [label="[{node.root.n}]"];')
            for slot, child in enumerate(node.children):
                child_id = rec(child)
                lines.append(f'  n{my_id} -> n{child_id} [label="{slot}"];')
            return my_id

        rec(obj)
    else:
        tree, note = _level_view(obj)
        for n in range(tree.depth + 1):
            for i in range(tree.levels[n]):
                lines.append(f'  v{n}_{i} [label="({n},{i}){note(n, i)}"];')
            members = " ".join(f"v{n}_{i};" for i in range(tree.levels[n]))
            lines.append(f"  {{ rank=same; {members} }}")
        for n, row in enumerate(tree.parents):
            for child, parent in enumerate(row):
                lines.append(f"  v{n}_{parent} -> v{n + 1}_{child};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _enumerate(args: argparse.Namespace) -> tuple[str, int]:
    objects = POOLS[args.kind](_resolve_bounds(args.bounds))
    return "".join(_dump(o.to_dict()) for o in objects), 0


def _convert(args: argparse.Namespace) -> tuple[str, int]:
    image = _apply_functor(args.functor, _load_object(args.input))
    return _dump(image.to_dict()), 0


def _count(args: argparse.Namespace) -> tuple[str, int]:
    count = _hom_count(_load_object(args.dom), _load_object(args.cod), args.kind)
    return _dump({"kind": "hom-count", "count": count}), 0


def _cells(args: argparse.Namespace) -> tuple[str, int]:
    bounds = _resolve_bounds(args.bounds)
    base = _load_object(args.input)
    if isinstance(base, OGraph):
        base = gamma_prime(base)
    if not isinstance(base, GlobCard):
        raise ValueError("cells requires a globcard or ograph input")
    counts = [len(enumerate_cells(base, n)) for n in range(bounds.max_dim + 1)]
    return _dump({"kind": "cell-counts", "counts": counts}), 0


def _verify(args: argparse.Namespace) -> tuple[str, int]:
    bounds = _resolve_bounds(args.bounds)
    reports = run_all(bounds) if args.all else [CHECKS[args.check](bounds)]
    return render_reports(reports), 0 if all(r.passed for r in reports) else 1


def _render(args: argparse.Namespace) -> tuple[str, int]:
    renderer = {
        "text": _render_text,
        "dot": _render_dot,
        "json": lambda obj: _dump(obj.to_dict()),
    }[args.format]
    return renderer(_load_object(args.input)), 0


class _Verb(NamedTuple):
    """A verb: its handler, its line in the top-level help, its description,
    and its arguments as ``(name, add_argument keywords)`` pairs in help
    order, where a list of pairs is a required mutually exclusive group.
    ``run`` returns the output and exit status; nothing is written until it
    has finished, so a failing request prints only its error."""

    run: Callable[[argparse.Namespace], tuple[str, int]]
    help: str
    description: str
    arguments: tuple
    # The keywords that end its help: the JSON shapes, raw so their lines stay.
    page: dict = {
        "epilog": _INPUT_HELP,
        "formatter_class": argparse.RawDescriptionHelpFormatter,
    }

    def parser(self, make: Callable, **keywords) -> argparse.ArgumentParser:
        """This verb's parser, made by ``make(**keywords, ...)``."""
        parser = make(**keywords, description=self.description, **self.page)
        for argument in self.arguments:
            group = isinstance(argument, list)
            to = parser.add_mutually_exclusive_group(required=True) if group else parser
            for flag, options in argument if group else [argument]:
                to.add_argument(flag, **options)
        return parser


_JSON = {"help": "path to a JSON file, or inline JSON"}
_INPUT = ("input", _JSON)
_BOUNDS = ("--bounds", {"help": _BOUNDS_HELP})
_OUT = ("--out", {"help": "write output to this path instead of stdout"})

_VERBS = {
    "enumerate": _Verb(
        _enumerate,
        "list the objects of a named family under the bounds",
        "Emit one canonical JSON object per line.",
        (("--kind", {"choices": ENUMERATIONS, "required": True}), _BOUNDS, _OUT),
    ),
    "convert": _Verb(
        _convert,
        "apply a named functor to a serialized object",
        "Read one object, apply the functor, print the image.",
        (("--functor", {"choices": FUNCTORS, "required": True}), _INPUT, _OUT),
    ),
    "hom-count": _Verb(
        _count,
        "count the morphisms between two serialized objects",
        "Both inputs must deserialize to the same kind of object.",
        (
            ("dom", _JSON),
            ("cod", _JSON),
            ("--kind", {"choices": ("interval", "ordinal"), "help": "only for a "
                        "pair of ordinals: count endpoint-preserving interval maps, "
                        "or all monotone maps (the default)"}),
            _OUT,
        ),
    ),
    "cells": _Verb(
        _cells,
        "count free-category cells per dimension over a base",
        "Input is a globcard or ograph; dimensions run from 0 to the dim bound.",
        (_INPUT, _BOUNDS, _OUT),
    ),
    "verify": _Verb(
        _verify,
        "run the exhaustive structure checks",
        "Reports are JSON lines; the exit status is 1 when any check fails.",
        (
            [("--check", {"choices": sorted(CHECKS)}),
             ("--all", {"action": "store_true"})],
            _BOUNDS,
            _OUT,
        ),
        page={},
    ),
    "render": _Verb(
        _render,
        "pretty-print a tree-shaped object",
        "Formats: text (indented), dot (Graphviz; levels are ranks, fiber "
        "order is left-to-right), json (canonical).",
        (
            _INPUT,
            ("--format", {"choices": ("text", "dot", "json"), "default": "text"}),
            _OUT,
        ),
    ),
}


@functools.cache
def _verb_parser(name: str) -> argparse.ArgumentParser:
    """The parser of one verb, built on its first request and reused after:
    ``parse_args`` leaves it unchanged and returns a fresh namespace."""
    return _VERBS[name].parser(argparse.ArgumentParser, prog=f"theta-disk {name}")


@functools.cache
def _top_parser() -> argparse.ArgumentParser:
    """The parser of a command line that does not start with a verb, for its
    help or its usage error.  Its subparsers take their verbs' arguments,
    so ``theta-disk --bogus convert`` fails as ``convert`` does."""
    parser = argparse.ArgumentParser(
        prog="theta-disk",
        description="Finite categories of trees, disks, and free "
        "omega-categories: enumerate objects, apply the structure "
        "functors, count hom-sets, and verify the structural laws.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in _VERBS.items():
        verb.parser(sub.add_parser, name=name, help=verb.help)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in _VERBS:
            args, extra = _verb_parser(argv[0]).parse_known_args(argv[1:])
            if extra:  # reported by the top-level parser, as argparse does
                _top_parser().error(f"unrecognized arguments: {' '.join(extra)}")
            args.verb = argv[0]
        else:
            args = _top_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, status = _VERBS[args.verb].run(args)
        _emit(text, args.out)
        return status
    except (
        ValueError, KeyError, TypeError, OSError, OverflowError, RecursionError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
