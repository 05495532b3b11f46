"""theta-disk benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every pass of the workload runs
in a fresh single-threaded Python process (``worker.py``), cold, as a user
running ``theta-disk`` pays it; passes repeat until the next one would end
after ``--seconds``.  ``pass_s`` and ``setup_s`` are wall times
rescaled to reference host speed by the worker's speed samples; the raw
wall times are printed too.  ``pass_s`` is the lower quartile over the
run's passes and ``instances_per_s`` the matching upper quartile; every
other figure is the median over passes.
With ``--trace 1`` each untraced pass is followed by a traced one, and the
per-layer figures come from the traced passes.  Once per run, outside the
timed passes, the workload's checks run again with corrupted functors.

Every check whose report fails or differs from ``pins.json``, every CLI
response that differs from ``cli_oracle.json``, and every corrupted check
that still passes counts as a failed operation.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as w  # noqa: E402

END_TO_END = (
    ("pass_s", "s"),
    ("instances_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_CHECK_TIMES = tuple(f"verify.{c}.s" for c in w.CHECK_ORDER)
PER_LAYER = (
    *_CHECK_TIMES,
    "verify.self_s",
    "itree.enumerate_morphisms.calls",
    "itree.enumerate_morphisms.s",
    "itree.enumerate_morphisms.results",
    "itree.duality.calls",
    "itree.duality.s",
    "itree.enumerate_objects.s",
    "itree.ITreeObj.constructed",
    "itree.ITreeMor.constructed",
    "ordinal.enumerate_maps.calls",
    "ordinal.enumerate_maps.s",
    "ordinal.enumerate_maps.results",
    "ordinal.duality.calls",
    "ordinal.duality.s",
    "ordinal.OrdMap.constructed",
    "forest.restrict.calls",
    "forest.restrict.s",
    "forest.make_level_tree.calls",
    "forest.make_level_tree.s",
    "forest.LevelTree.constructed",
    "labeled.enumerate_cropped_trees.calls",
    "labeled.enumerate_cropped_trees.s",
    "labeled.enumerate_cropped_trees.results",
    "labeled.enumerate_labeled_mors.calls",
    "labeled.enumerate_labeled_mors.s",
    "labeled.enumerate_labeled_mors.results",
    "labeled.validate.calls",
    "labeled.validate.s",
    "labeled.xi.calls",
    "labeled.xi.s",
    "labeled.con_dualize.calls",
    "labeled.con_dualize.s",
    "disk.enumerate_disk_morphisms.calls",
    "disk.enumerate_disk_morphisms.s",
    "disk.enumerate_disk_morphisms.results",
    "disk.phi.calls",
    "disk.phi.s",
    "disk.DiskMor.constructed",
    "globular.enumerate_glob_morphisms.calls",
    "globular.enumerate_glob_morphisms.s",
    "globular.enumerate_glob_morphisms.results",
    "globular.sub_globcard.calls",
    "globular.GlobMor.constructed",
    "ograph.enumerate_ographs.calls",
    "ograph.enumerate_ographs.s",
    "ograph.enumerate_ographs.results",
    "ograph.enumerate_ograph_morphisms.calls",
    "ograph.enumerate_ograph_morphisms.s",
    "ograph.enumerate_ograph_morphisms.results",
    "ograph.gamma.calls",
    "ograph.gamma.s",
    "ograph.upsilon.calls",
    "ograph.upsilon.s",
    "omega.enumerate_cells.calls",
    "omega.enumerate_cells.s",
    "omega.enumerate_cells.results",
    "omega.boundary.calls",
    "omega.boundary.s",
    "omega.compose_cells.calls",
    "omega.compose_cells.s",
    "omega.comparison_L.calls",
    "omega.comparison_L.s",
    "omega.enriched.calls",
    "omega.enriched.s",
    "omega.enumerate_omega_functors.calls",
    "omega.enumerate_omega_functors.s",
    "omega.enumerate_omega_functors.results",
    "omega.psi.calls",
    "omega.psi.s",
    "omega.Cell.constructed",
    "omega.EnrichedCell.constructed",
    "cli.main.calls",
    "cli.main.s",
    "cli.load.s",
    "cli.dump.s",
    "cli.self_s",
    "trace.wall_s",
    "trace.overhead_s",
    "trace.spans",
)

# Fewest untraced passes a run makes, whatever --seconds says.
MIN_PASSES = {0: 3, 1: 1}
# Every process this run starts is finished by then.
HARD_LIMIT_S = 170


def quartile(values: list[float], which: int) -> float:
    """The lower (1) or upper (3) quartile; the value itself if it is alone."""
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=4, method="inclusive")[which - 1]


def at_reference_speed(p: dict, part: str) -> float:
    """A pass's wall time for ``part`` on a host running at reference speed."""
    wall = p["setup_s" if part == "setup" else "wall_s"]
    return wall * w.REFERENCE_SAMPLE_S / p["speed"][part]["mean_s"]


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".results", ".constructed", ".spans")):
        return "count"
    return "s"


class Run:
    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.env = dict(os.environ)
        self.env.pop("THETA_DISK_BOUNDS", None)
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONHASHSEED"] = str(seed % 2**32)
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.ops_per_pass = (
            w.CLI_REQUESTS_PER_PASS + 1
            if workload == w.CLI
            else len(w.BATCH[workload])
        )

    def spawn(self, mode: str, spans: Path | None = None) -> dict | None:
        """Run one worker process to completion; account for its operations."""
        command = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
        ]
        if spans is not None:
            command += ["--spans", str(spans)]
        timeout = max(1.0, self.start + HARD_LIMIT_S - time.monotonic())
        try:
            proc = subprocess.run(
                command + ["--spawned-at", repr(time.monotonic())],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return self.lost(mode, f"timed out after {timeout:.0f} s")
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return self.lost(mode, f"exit {proc.returncode}: {proc.stderr[-800:]}")
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.messages += [f"{mode}: {m}" for m in result["failures"]]
        return result

    def lost(self, mode: str, why: str) -> None:
        """Count every operation of a worker that gave no result as failed."""
        ops = 1 if mode == "controls" else self.ops_per_pass
        self.attempted += ops
        self.failed += ops
        self.messages.append(f"{mode} worker: {why}")
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=w.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = HERE.parent
    if not (root / "src" / "theta_disk" / "cli.py").is_file():
        print(f"error: no theta_disk sources under {root / 'src'}", file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed)
    if args.workload != w.CLI:
        print(f"seed {args.seed} does not change the inputs: {args.workload} is exhaustive")
    deadline = run.start + args.seconds
    passes: list[dict] = []
    traced: list[dict] = []
    while True:
        began = time.monotonic()
        result = run.spawn("pass")
        if result is None:
            break
        passes.append(result)
        if args.trace:
            spans = root / ".perfbench_out" / f"spans-{args.workload}-{args.seed}-{len(traced)}.tsv"
            result = run.spawn("traced", spans)
            if result is None:
                break
            traced.append(result)
        now = time.monotonic()
        cycle = now - began
        if len(passes) >= MIN_PASSES[args.trace] and now + cycle > deadline:
            break
        if now + cycle > run.start + HARD_LIMIT_S - 15:
            break
    run.spawn("controls")

    for i, p in enumerate(passes):
        print(
            f"pass {i}: wall {p['wall_s']:.4f} s, at reference speed "
            f"{at_reference_speed(p, 'pass'):.4f} s, setup {p['setup_s']:.4f} s, "
            f"speed sample mean {p['speed']['pass']['mean_s'] * 1e6:.1f} us "
            f"min {p['speed']['pass']['min_s'] * 1e6:.1f} us, "
            f"{p['instances']} instances, peak rss {p['peak_rss_mb']:.1f} MB"
        )
    for message in run.messages:
        print(f"FAILED {message}")
    if not passes or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    # Contention on a shared host only ever slows a pass, and the speed
    # samples correct for it only in part: stretches of a minute or so run
    # 20-30% slow at the same sample times.  Every pass of a run does the
    # same deterministic work, so the fast quartile of passes is the
    # steadiest estimate of its cost that one slow stretch does not move.
    pass_s = [at_reference_speed(p, "pass") for p in passes]
    e2e = {
        "pass_s": quartile(pass_s, 1),
        "instances_per_s": quartile([p["instances"] / t for p, t in zip(passes, pass_s)], 3),
        "setup_s": median([at_reference_speed(p, "setup") for p in passes]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }
    wall_s = median([p["wall_s"] for p in passes])
    extra = {
        "wall_s": (wall_s, "s"),
        "setup_wall_s": (median([p["setup_s"] for p in passes]), "s"),
        "contention": (median([p["wall_s"] / t for p, t in zip(passes, pass_s)]), "1"),
        "failed_frac": (run.failed / run.attempted, "1"),
    }
    if args.workload == w.CLI:
        extra["requests_per_s"] = (median([p["instances"] / p["wall_s"] for p in passes]), "1/s")
        for key in ("request_p50_ms", "request_p99_ms"):
            extra[key] = (median([p[key] for p in passes]), "ms")
    units = dict(END_TO_END)
    print(f"{len(passes)} passes (pass_s: lower quartile, instances_per_s: upper; others: medians):")
    for name, value in e2e.items():
        print(f"  {name} {value:.6g} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name} {value:.6g} {unit}")

    if args.trace:
        layers = {
            name: median([t["layers"].get(name, 0) for t in traced])
            for name in PER_LAYER
            if name != "trace.overhead_s"
        }
        layers["trace.overhead_s"] = layers["trace.wall_s"] - wall_s
        print(f"{len(traced)} traced passes, medians:")
        probed = sorted({name for t in traced for name in t["probed"]})
        print(f"  from the probe, as the pass never entered them: {' '.join(probed) or '-'}")
        for name in PER_LAYER:
            print(f"  {name} {layers[name]:.6g} {layer_unit(name)}")
        metrics = {
            name: {"value": layers[name], "unit": layer_unit(name)}
            for name in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END
        }
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
