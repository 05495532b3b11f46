"""The benchmark's workloads: pinned bounds, pinned results, CLI requests.

Every bound is spelled out here rather than taken from ``Bounds()``
defaults, so a change to the defaults does not change what is measured.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"
ORACLE_PATH = HERE / "cli_oracle.json"

BOUND_KEYS = ("height", "degree", "label", "vertices", "dim")

# ``theta-disk verify --all`` at the package defaults of this commit.
DEFAULT = {"height": 3, "degree": 2, "label": 3, "vertices": 5, "dim": 3}
# Ordinal graphs of size up to 9 (23 graphs), cells up to dimension 2.
OMEGA = {"height": 3, "degree": 2, "label": 3, "vertices": 9, "dim": 2}
# Ordinal trees of height 2 with roots up to [4]: 36 pairs of functor sets.
PSI = {"height": 3, "degree": 5, "label": 3, "vertices": 5, "dim": 3}
LABEL4 = {"height": 3, "degree": 2, "label": 4, "vertices": 5, "dim": 3}
LABEL5 = {"height": 3, "degree": 2, "label": 5, "vertices": 5, "dim": 3}

CHECK_ORDER = (
    "ordinal-duality",
    "itree-duality",
    "phi",
    "gamma",
    "upsilon",
    "L",
    "omega-laws",
    "psi",
    "xi",
)

# workload -> (check, bounds) pairs, in the order they run.  verify-default
# runs as one ``verify --all`` call; the others run one ``verify --check``
# call per pair.
BATCH = {
    "verify-default": tuple((check, DEFAULT) for check in CHECK_ORDER),
    "omega-wide": (
        ("gamma", OMEGA),
        ("upsilon", OMEGA),
        ("L", OMEGA),
        ("omega-laws", OMEGA),
        ("psi", PSI),
    ),
    "trees-wide": (
        ("ordinal-duality", LABEL5),
        ("phi", LABEL5),
        ("xi", LABEL4),
    ),
}
CLI = "cli-requests"
WORKLOADS = (*BATCH, CLI)

# The speed loop's time (``worker.SpeedSampler``) on an uncontended core of
# the 2-core host the baseline was measured on.  ``pass_s`` and ``setup_s``
# are wall times rescaled to a host whose loop takes this long throughout.
REFERENCE_SAMPLE_S = 25e-6

CLI_REQUESTS_PER_PASS = 2000
# Share of sampled requests whose expected exit status is 2.
CLI_BAD_SHARE = 0.15


def bounds_arg(bounds: dict) -> str:
    return ",".join(f"{k}={bounds[k]}" for k in BOUND_KEYS)


def pin_key(check: str, bounds: dict) -> str:
    return f"{check}@{bounds_arg(bounds)}"


def verify_argvs(workload: str) -> list[list[str]]:
    """The ``theta-disk`` argument lists that make up one batch pass."""
    pairs = BATCH[workload]
    if workload == "verify-default":
        return [["verify", "--all", "--bounds", bounds_arg(DEFAULT)]]
    return [
        ["verify", "--check", check, "--bounds", bounds_arg(bounds)]
        for check, bounds in pairs
    ]


def load_json(path: Path):
    return json.loads(path.read_text())


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def request_key(argv: list[str]) -> str:
    return digest(json.dumps(argv))


# --- cli-requests -----------------------------------------------------------

# functor -> object kinds the CLI applies it to
FUNCTOR_KINDS = {
    "vee": ("ordinal", "ordmap", "itree"),
    "wedge": ("ordinal", "ordmap", "itree"),
    "phi": ("disk",),
    "phi-inverse": ("itree",),
    "gamma": ("globcard",),
    "gamma-prime": ("ograph",),
    "upsilon": ("itree",),
    "upsilon-prime": ("ograph",),
    "xi": ("labeled-tree",),
    "xi-inverse": ("itree",),
    "L": ("cell",),
    "psi": ("itree",),
    "con-dualize": ("labeled-tree", "labeled-tree-mor"),
}
TREE_KINDS = ("itree", "disk", "tree", "labeled-tree")

MALFORMED = (
    "{",
    "not json",
    "[]",
    '"ordinal"',
    '{"n": 3}',
    '{"kind": "nope"}',
    '{"kind": "ordinal"}',
    '{"kind": "ordinal", "n": -7}',
    '{"kind": "ordmap", "dom": 2, "cod": 1, "images": [0, 5, 1]}',
    '{"kind": "itree", "flavor": "weird", "root": 0, "children": []}',
    '{"kind": "itree", "flavor": "interval", "root": 2, "children": []}',
    '{"kind": "tree", "levels": [1, 2], "parents": [[0, 3]]}',
    '{"kind": "disk", "levels": [1, 2], "parents": [[0, 0]], "fiber_sizes": [[3]]}',
    '{"kind": "ograph", "vertices": 1, "edges": [{"kind": "ograph", "vertices": 1, "edges": []}]}',
)


def cli_pools() -> dict[str, list[str]]:
    """Serialized objects per kind, enumerated at pinned bounds."""
    from theta_disk.disk import enumerate_disks
    from theta_disk.itree import INTERVAL, ORDINAL, enumerate_objects
    from theta_disk.labeled import enumerate_cropped_trees, enumerate_labeled_mors
    from theta_disk.ograph import enumerate_ographs, gamma_prime
    from theta_disk.omega import enumerate_cells
    from theta_disk.ordinal import Ordinal, enumerate_interval_maps, enumerate_ord_maps

    def ser(objs) -> list[str]:
        # Sorted, so the pools do not depend on enumeration order.
        return sorted({json.dumps(obj.to_dict(), sort_keys=True) for obj in objs})

    ordinals = [Ordinal(n) for n in range(-1, 4)]
    small = [Ordinal(n) for n in range(-1, 3)]
    ordmaps = [f for a in small for b in small for f in enumerate_ord_maps(a, b)]
    ordmaps += [
        f for a in ordinals[1:] for b in ordinals[1:]
        for f in enumerate_interval_maps(a, b)
    ]
    itrees = enumerate_objects(INTERVAL, 3, 3) + enumerate_objects(ORDINAL, 3, 3)
    disks = enumerate_disks(2, 3)
    cropped = enumerate_cropped_trees(INTERVAL, 3, 4) + enumerate_cropped_trees(
        ORDINAL, 3, 3
    )
    small_cropped = enumerate_cropped_trees(INTERVAL, 2, 3)
    ographs = enumerate_ographs(7, 3)
    cell_bases = [gamma_prime(g) for g in enumerate_ographs(5, 3)]
    return {
        "ordinal": ser(ordinals),
        "ordmap": ser(ordmaps),
        "itree": ser(itrees),
        "itree-hom": ser(
            enumerate_objects(INTERVAL, 2, 3) + enumerate_objects(ORDINAL, 2, 3)
        ),
        "disk": ser(disks),
        "tree": ser([t.tree for t in cropped] + [d.tree for d in disks]),
        "labeled-tree": ser(cropped),
        "labeled-hom": ser(
            small_cropped + enumerate_cropped_trees(ORDINAL, 2, 2)
        ),
        "labeled-tree-mor": ser(
            m for a in small_cropped for b in small_cropped
            for m in enumerate_labeled_mors(a, b)
        ),
        "ograph": ser(ographs),
        "globcard": ser(gamma_prime(g) for g in ographs),
        "cell": ser(c for x in cell_bases for n in range(4) for c in enumerate_cells(x, n)),
    }


def cli_universe(pools: dict[str, list[str]]) -> list[list[str]]:
    """Every request the cli-requests workload samples from, in a fixed
    order that does not depend on enumeration order."""
    kinds = ("ordinal", "ordmap", "itree", "disk", "tree", "labeled-tree",
             "labeled-tree-mor", "ograph", "globcard", "cell")
    requests: list[list[str]] = []
    for functor, applies in FUNCTOR_KINDS.items():
        for kind in kinds:
            objs = pools[kind] if kind in applies else pools[kind][:2]
            requests += [["convert", "--functor", functor, x] for x in objs]
    for kind, pool in (
        ("ordinal", "ordinal"),
        ("disk", "disk"),
        ("itree", "itree-hom"),
        ("globcard", "globcard"),
        ("ograph", "ograph"),
        ("labeled-tree", "labeled-hom"),
    ):
        for a in pools[pool]:
            for b in pools[pool]:
                requests.append(["hom-count", a, b])
                if kind == "ordinal":
                    requests.append(["hom-count", "--kind", "interval", a, b])
    for a, b in zip(pools["ordinal"], pools["itree"]):
        requests += [["hom-count", a, b], ["hom-count", b, a]]
    for a, b in zip(pools["ograph"], pools["globcard"][1:]):
        requests.append(["hom-count", a, b])
    for kind in kinds:
        for x in pools[kind] if kind in ("ograph", "globcard") else pools[kind][:2]:
            requests += [["cells", x], ["cells", "--bounds", "dim=2", x]]
    for kind in kinds:
        for x in pools[kind]:
            requests.append(["render", "--format", "json", x])
            for fmt in ("text", "dot"):
                if kind in TREE_KINDS or x in pools[kind][:2]:
                    requests.append(["render", "--format", fmt, x])
    x = pools["itree"][-1]
    for bad in MALFORMED:
        requests += [
            ["convert", "--functor", "vee", bad],
            ["render", bad],
            ["cells", bad],
            ["hom-count", bad, x],
        ]
    requests += [
        ["convert", "--functor", "nope", x],
        ["convert", x],
        ["hom-count", x],
        ["cells", "--bounds", "width=2", pools["ograph"][0]],
        ["cells", "--bounds", "dim=x", pools["ograph"][0]],
        ["render", "--format", "svg", x],
        ["frobnicate", x],
    ]
    unique = {request_key(r): r for r in requests}
    return [unique[k] for k in sorted(unique)]


def sample_requests(
    universe: list[list[str]], oracle: dict, seed: int, count: int
) -> list[list[str]]:
    """Draw ``count`` requests; about ``CLI_BAD_SHARE`` of them are ones the
    oracle expects to exit 2."""
    good, bad = [], []
    for r in universe:
        (good if oracle.get(request_key(r), [2])[0] == 0 else bad).append(r)
    rng = random.Random(seed)
    return [
        rng.choice(bad if rng.random() < CLI_BAD_SHARE else good)
        for _ in range(count)
    ]


def call_cli(main, argv: list[str]) -> tuple[int | None, str, float]:
    """Run ``main(argv)`` in-process; return the exit status (``None`` if
    it raised), what it wrote to stdout, and the seconds ``main`` took."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception:  # a traceback is a wrong response, not a crash
            code = None
        seconds = time.perf_counter() - start
    return code, out.getvalue(), seconds
