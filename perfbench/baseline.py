"""Measure the benchmark's baseline: repeated runs per workload, one seed each.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

Run from the repository root.  For every workload this makes ten untraced
runs with seeds 1..10 and one traced run, and records each
end-to-end metric's median, quartiles (``statistics.quantiles(n=4)``) and
spread (interquartile distance over median), next to the values
themselves, the workload bounds and the machine's processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as w

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run; its JSON result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
    print(f"{workload} seed {seed} trace {trace}: {values if not trace else ''}", flush=True)
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    why = {entry["name"]: entry["why"] for entry in spec["workloads"]}
    out = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "run_seconds": seconds,
        "seeds": list(range(1, RUNS + 1)),
        "workloads": {},
    }
    for workload in w.WORKLOADS:
        results = [run(workload, seed, seconds, 0) for seed in out["seeds"]]
        if not all(r["correct"] for r in results):
            sys.exit(f"{workload}: a run reported failed operations")
        traced = run(workload, 1, seconds, 1)
        out["workloads"][workload] = {
            "why": why[workload],
            "bounds": {
                w.pin_key(check, b): b for check, b in w.BATCH.get(workload, ())
            },
            "attempted_per_run": [r["attempted"] for r in results],
            "end_to_end": {
                name: summary([r["metrics"][name]["value"] for r in results])
                for name in results[0]["metrics"]
            },
            "traced_seed_1": {
                name: m["value"] for name, m in traced["metrics"].items()
            },
        }
        for name, s in out["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name}: median {s['median']:.6g} spread {s['spread']:.3f}")
    args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
