"""One cold pass of a workload, in its own process.

    python3 perfbench/worker.py --workload W --seed N --mode pass|traced|controls
        --spawned-at T [--spans PATH]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` runs from interpreter start to
inputs ready.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from array import array
from functools import partial
from pathlib import Path

import workloads as w


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class SpeedSampler:
    """Times a fixed loop from SIGALRM every ``INTERVAL_S`` of wall time
    while set-up or a pass runs.

    On a shared host the loop's time is bimodal: each core switches
    between a fast state and a contended one about twice as slow, every
    fraction of a second, in proportions that drift over minutes.  The
    loop's mean time over a stretch, against its time on a fast core
    (``workloads.REFERENCE_SAMPLE_S``), estimates how much contention
    slowed that stretch.  Sampling costs about 1% of the time sampled.
    """

    INTERVAL_S = 0.005

    def __init__(self) -> None:
        self.samples = array("d")

    def _sample(self, signum, frame) -> None:
        # A collection of the workload's heap must not land in the loop:
        # it would make a pass that allocates more look faster.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(200):
            acc += i * i % 7
            table[i & 63] = (i, acc)
        self.samples.append(time.perf_counter() - start)
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def summary(self) -> dict:
        return {"min_s": min(self.samples), "mean_s": statistics.fmean(self.samples)}


def parse_reports(stdout: str) -> list[dict]:
    reports = []
    for line in stdout.splitlines():
        try:
            reports.append(json.loads(line))
        except ValueError:
            pass
    return reports


def check_batch(workload: str, outcomes: list, pins: dict) -> tuple[int, list[str], int]:
    """Return the checks attempted, a message per check whose report is
    missing, duplicated, failing or off the pins, and the instances
    reported."""
    pairs = [(check, w.pin_key(check, b)) for check, b in w.BATCH[workload]]
    # verify-default is one ``verify --all`` call reporting every check;
    # the others make one call per check.
    expected = [pairs] if workload == "verify-default" else [[p] for p in pairs]
    failures, instances = [], 0
    for (code, stdout), checks in zip(outcomes, expected):
        reports: dict[str, list[dict]] = {}
        for report in parse_reports(stdout):
            if isinstance(report, dict):
                reports.setdefault(report.get("check"), []).append(report)
        for check, key in checks:
            found = reports.get(check, [])
            if len(found) != 1:
                failures.append(f"{key}: {len(found)} reports (exit {code})")
                continue
            report = found[0]
            instances += sum(report.get("instances", {}).values())
            if report.get("passed") is not True or code != 0:
                failures.append(f"{key}: failed {report.get('counterexample')}")
            elif report.get("instances") != pins.get(key):
                failures.append(
                    f"{key}: instances {report.get('instances')} != pin {pins.get(key)}"
                )
    return len(pairs), failures, instances


def batch_inputs(workload: str) -> tuple[dict, list[list[str]]]:
    return w.load_json(w.PINS_PATH), w.verify_argvs(workload)


def run_batch(workload: str, inputs, main) -> dict:
    pins, argvs = inputs
    outcomes = []
    start = time.perf_counter()
    for argv in argvs:
        code, stdout, _ = w.call_cli(main, argv)
        outcomes.append((code, stdout))
    wall = time.perf_counter() - start
    attempted, failures, instances = check_batch(workload, outcomes, pins)
    return {
        "wall_s": wall,
        "instances": instances,
        "attempted": attempted,
        "failures": failures,
    }


def cli_inputs(seed: int) -> tuple[dict, list[list[str]], list[str]]:
    """The oracle, the seed's requests, and a failure if the request
    universe built here is not the one the oracle covers."""
    oracle = w.load_json(w.ORACLE_PATH)
    universe = w.cli_universe(w.cli_pools())
    requests = w.sample_requests(universe, oracle, seed, w.CLI_REQUESTS_PER_PASS)
    failures = []
    if {w.request_key(r) for r in universe} != set(oracle):
        failures.append("request universe differs from the oracle's")
    return oracle, requests, failures


def run_cli(inputs, main) -> dict:
    oracle, requests, failures = inputs
    failures = list(failures)
    latencies = []
    for argv in requests:
        code, stdout, seconds = w.call_cli(main, argv)
        latencies.append(seconds)
        expect = oracle.get(w.request_key(argv))
        if expect is None or [code, w.digest(stdout)] != expect:
            failures.append(f"{argv[:3]}: exit {code}, expected {expect}")
    return {
        "wall_s": sum(latencies),
        "instances": len(requests),
        "attempted": len(requests) + 1,
        "failures": failures,
        "request_p50_ms": 1000 * statistics.median(latencies),
        "request_p99_ms": 1000 * percentile(latencies, 0.99),
    }


# Run after each traced pass, with the tracer's figures zeroed, so that a
# time figure of a layer the pass never entered is the measured time of a
# few small calls instead of a constant 0.  Only such figures are taken
# from it; every count, and every time of a layer the pass entered, is the
# pass's own.
PROBE = (
    ["verify", "--all", "--bounds", "height=2,degree=2,label=2,vertices=3,dim=2"],
    ["convert", "--functor", "vee", '{"kind": "ordinal", "n": 2}'],
)


def time_figures() -> dict[str, tuple[tuple[str, ...], str]]:
    """Per-layer time figure -> (the tracer groups it sums, which time)."""
    from tracer import GROUPS

    checks = tuple(f"verify.{c}" for c in w.CHECK_ORDER)
    figures = {f"{group}.s": ((group,), "total_s") for group in checks}
    figures["verify.self_s"] = (checks, "s")
    figures.update({f"{group}.s": ((group,), "s") for group in GROUPS})
    figures["cli.main.s"] = (("cli.main",), "total_s")
    figures["cli.self_s"] = (("cli.main",), "s")
    figures["cli.load.s"] = (("cli.load",), "s")
    return figures


def count_figures(tracer) -> dict:
    from tracer import CONSTRUCTED, GROUPS

    out = {}
    for group, (_, _, results) in GROUPS.items():
        out[f"{group}.calls"] = tracer.metric(group, "calls")
        if results:
            out[f"{group}.results"] = tracer.metric(group, "results")
    for name in CONSTRUCTED:
        out[name] = tracer.constructed[name]
    out["cli.main.calls"] = tracer.metric("cli.main", "calls")
    out["trace.spans"] = tracer.spans
    return out


def traced_figures(tracer, main_fn, spans: Path | None) -> tuple[dict, list[str]]:
    """The pass's per-layer figures, and the names of the time figures
    that were taken from the probe."""
    figures = time_figures()
    out = count_figures(tracer)
    probed = []
    for name, (groups, field) in figures.items():
        if any(tracer.metric(g, "calls") for g in groups):
            out[name] = sum(tracer.metric(g, field) for g in groups)
        else:
            probed.append(name)
    if spans:
        tracer.write_spans(spans)
    tracer.reset()
    for argv in PROBE:
        w.call_cli(main_fn, argv)
    for name in probed:
        groups, field = figures[name]
        out[name] = sum(tracer.metric(g, field) for g in groups)
    return out, probed


def controls(workload: str) -> dict:
    """Rerun the workload's checks with one corrupted functor each; every
    one of them must fail.  For cli-requests, corrupt a functor inside the
    CLI and require the oracle to reject the response."""
    from theta_disk import cli
    from theta_disk.globular import POINT_CARDINAL
    from theta_disk.itree import INTERVAL, ITreeObj, enumerate_morphisms, trivial_obj, vee
    from theta_disk.labeled import xi_interval, xi_inverse
    from theta_disk.ograph import EMPTY_OGRAPH, gamma
    from theta_disk.omega import EnrichedCell, comparison_L, compose_cells, m_source, promote_cell, psi_mor
    from theta_disk.ordinal import OrdMap, Ordinal, vee_map
    from theta_disk.verify import CHECKS, Bounds

    ti = trivial_obj(INTERVAL)
    i1 = ITreeObj(INTERVAL, Ordinal(1), (ti, ti))
    li1 = xi_inverse(i1)
    two = Ordinal(2)

    def bad_vee_map(f):
        if f.dom == two and f.images == (0, 1, 2):
            return vee_map(OrdMap(two, two, (0, 2, 2)))
        return vee_map(f)

    def bad_L(c):
        e = comparison_L(c)
        return EnrichedCell(0, 0, 0) if e.dim == 0 and e.h == e.k == 1 else e

    corrupt = {
        "ordinal-duality": {"vee_map_fn": bad_vee_map},
        "itree-duality": {"vee_fn": lambda x: vee(ti) if x == i1 else vee(x)},
        "phi": {"phi_obj_fn": lambda d: ti},
        "gamma": {"gamma_fn": lambda x: EMPTY_OGRAPH if x == POINT_CARDINAL else gamma(x)},
        "upsilon": {"upsilon_fn": lambda h: EMPTY_OGRAPH},
        "L": {"comparison_fn": bad_L},
        "omega-laws": {
            "compose_fn": lambda beta, alpha, m: promote_cell(
                m_source(alpha, m), compose_cells(beta, alpha, m).nominal_dim
            )
        },
        "psi": {"psi_mor_fn": lambda f: psi_mor(enumerate_morphisms(f.dom, f.cod)[0])},
        "xi": {"xi_interval_fn": lambda t: ti if t == li1 else xi_interval(t)},
    }
    failures = []
    if workload == w.CLI:
        oracle = w.load_json(w.ORACLE_PATH)
        argv = ["convert", "--functor", "vee", '{"kind": "ordinal", "n": 3}']
        real = cli.vee_obj
        cli.vee_obj = lambda m: Ordinal(m.n)
        try:
            code, stdout, _ = w.call_cli(cli.main, argv)
        finally:
            cli.vee_obj = real
        if [code, w.digest(stdout)] == oracle[w.request_key(argv)]:
            failures.append("oracle accepted a corrupted vee")
        return {"attempted": 1, "failures": failures}
    for check, b in w.BATCH[workload]:
        bounds = Bounds(
            max_height=b["height"],
            max_degree=b["degree"],
            max_label=b["label"],
            max_vertices=b["vertices"],
            max_dim=b["dim"],
        )
        report = CHECKS[check](bounds, **corrupt[check])
        if report.passed or report.counterexample is None:
            failures.append(f"{w.pin_key(check, b)} passed with a corrupted functor")
    return {"attempted": len(w.BATCH[workload]), "failures": failures}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=w.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("pass", "traced", "controls"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    if args.mode == "controls":
        result = controls(args.workload)
        result["failed"] = len(result["failures"])
        print(json.dumps(result))
        return
    with SpeedSampler() as setup_speed:
        from theta_disk import cli  # import cost belongs to set-up

        if args.workload == w.CLI:
            inputs = cli_inputs(args.seed)
            run = run_cli
        else:
            inputs = batch_inputs(args.workload)
            run = partial(run_batch, args.workload)
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "pass":
        with SpeedSampler() as pass_speed:
            result = run(inputs, cli.main)
        result["speed"] = {"setup": setup_speed.summary(), "pass": pass_speed.summary()}
    else:
        # Installed once the inputs are built, so no figure counts set-up.
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        main_fn = tracer.wrap(cli.main, "cli.main")
        result = run(inputs, main_fn)
        result["layers"], result["probed"] = traced_figures(tracer, main_fn, args.spans)
        result["layers"]["trace.wall_s"] = result["wall_s"]
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["failed"] = len(result["failures"])
    result["failures"] = result["failures"][:10]
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
