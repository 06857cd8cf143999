"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-steady --seed 1 --seconds 10 --trace 0

``--trace 0`` repeats the same-seed run until ``--seconds`` of host time
are spent (at least twice), checks every repeat, and reports the
end-to-end metrics: host figures as medians over the repeats, simulated
figures from the repeats, which must agree bit for bit.  ``--trace 1``
makes one plain run and one traced run (deterministic profile plus the
history oracle) and reports the per-layer table.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: End-to-end metrics: unit, better, host or sim time.
E2E = {
    "setup_s": ("s", "lower", "host"),
    "host_us_per_txn": ("host-us/txn", "lower", "host"),
    "host_s_per_sim_s": ("host-s/sim-s", "lower", "host"),
    "peak_rss_mb": ("host-MB", "lower", "host"),
    "txn_p50_ms": ("sim-ms", "lower", "sim"),
    "txn_p99_ms": ("sim-ms", "lower", "sim"),
    "committed_tps": ("txn/sim-s", "higher", "sim"),
    "txn_fail_ratio": ("ratio", "lower", "sim"),
    "recovery_s": ("sim-s", "lower", "sim"),
}
#: Set-ups per run; ``setup_s`` is their median.
MIN_SETUPS = 11


def git_sha() -> str:
    """HEAD's commit id, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_plain(wl, seed, inputs, seconds, problems):
    """Same-seed repeats until ``seconds`` of host time are spent."""
    from perfbench.workload import Run, build_and_run

    runs = []
    started = time.perf_counter()
    while len(runs) < 2 or time.perf_counter() - started < seconds:
        run = build_and_run(wl, seed, inputs)
        check_run(run, problems)
        run.cluster = None
        runs.append(run)
        print(f"  repeat {len(runs)}: setup {run.setup_raw_s:.3f} s, window "
              f"{run.host_s:.3f} s host at speed {run.speed:.3f} "
              f"/ {run.sim_s:.3f} s sim, "
              f"{run.events} events", flush=True)
    setups = [r.setup_s for r in runs]
    while len(setups) < MIN_SETUPS:
        extra = Run(wl, seed, inputs)
        setups.append(extra.setup())
        extra.cluster = None
    prints = {r.fingerprint() for r in runs}
    if len(prints) != 1:
        problems.append(f"same-seed repeats differ: {len(prints)} distinct outcomes")
    return runs, setups


def check_run(run, problems) -> None:
    committed = committed_count(run)
    if committed < 1000:
        problems.append(f"only {committed} committed transactions (< 1000)")
    if run.lost:
        problems.append(f"{run.lost} rows lost or wrong on read-back")
    mismatched = run.reconcile()
    if mismatched:
        problems.append(f"{mismatched} begin/commit stages differ from the program's spans")
    problems.extend(run.errors)
    for err in run.txn_errors[:5]:
        print(f"  failed transaction: {err}")


def committed_count(run) -> int:
    return sum(1 for o in run.outcome if o == "committed")


def e2e_metrics(runs, setups) -> dict:
    from perfbench.workload import percentile

    first = runs[0]
    committed = committed_count(first)
    lat = first.committed_latencies()
    window = max(first.times[i][-1] for i, o in enumerate(first.outcome)
                 if o == "committed") - first.t0
    m = {
        "setup_s": statistics.median(setups),
        "host_us_per_txn": statistics.median(
            r.host_s / r.speed * 1e6 / committed for r in runs),
        "host_s_per_sim_s": statistics.median(r.host_s / r.speed / r.sim_s for r in runs),
        "peak_rss_mb": first.peak_rss_mb,
        "txn_p50_ms": percentile(lat, 50) * 1e3,
        "txn_p99_ms": percentile(lat, 99) * 1e3,
        "committed_tps": committed / window,
        "txn_fail_ratio": (len(first.inputs) - committed) / len(first.inputs),
    }
    if first.server_crashed_at is not None and first.recovered_at is not None:
        m["recovery_s"] = first.recovered_at - first.server_crashed_at
    raw = {
        "raw_setup_s": statistics.median(r.setup_raw_s for r in runs),
        "raw_host_us_per_txn": statistics.median(r.host_s * 1e6 / committed for r in runs),
        "host_speed": statistics.median(r.speed for r in runs),
    }
    return m, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"benchmark: no src/repro under {ROOT}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.layers import LAYERS, layer_metrics
    from perfbench.workload import WORKLOADS, build_and_run, make_inputs

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    stamp = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": wl.params(),
    }
    print("stamp: " + json.dumps(stamp, sort_keys=True), flush=True)
    inputs = make_inputs(wl, args.seed)
    problems: list = []

    if args.trace == 0:
        runs, setups = run_plain(wl, args.seed, inputs, args.seconds, problems)
        values, raw = e2e_metrics(runs, setups)
        print(f"{wl.name}: {len(runs)} repeats, {len(setups)} set-ups; host figures "
              f"are wall-clock scaled to the reference speed (unscaled medians: "
              + ", ".join(f"{k} {v:.6f}" for k, v in raw.items()) + ")")
        for name, (unit, better, kind) in E2E.items():
            if name in values:
                print(f"  {name:<18} {values[name]:>14.6f} {unit:<13} {kind}, {better} is better")
        committed = committed_count(runs[0])
        units = {name: spec[0] for name, spec in E2E.items()}
        listed = manifest["end_to_end"]
    else:
        plain = build_and_run(wl, args.seed, inputs)
        check_run(plain, problems)
        plain_us = plain.host_s / plain.speed * 1e6 / committed_count(plain)
        plain_digest = plain.fingerprint()
        plain.cluster = None
        traced = build_and_run(wl, args.seed, inputs, traced=True)
        check_run(traced, problems)
        verdict = traced.oracle()
        if traced.fingerprint() != plain_digest:
            problems.append("traced run's simulated outcome differs from the plain run's")
        if verdict["si_anomalies"] or verdict.get("cycles", 0):
            problems.append(f"oracle: {verdict}")
        values, recon = layer_metrics(traced, plain_us)
        if abs(recon["folded_total_s"] - recon["profile_total_s"]) > 1e-6 * recon["profile_total_s"]:
            problems.append(f"layer self-times do not add up: {recon}")
        committed = committed_count(traced)
        print(f"{wl.name}: oracle {json.dumps(verdict, sort_keys=True)}")
        print(f"  profiled {recon['profile_total_s']:.3f} s self time "
              f"(sum of packages {recon['folded_total_s']:.3f} s) "
              f"over {recon['profiled_wall_s']:.3f} s wall, {committed} committed")
        print(f"  {'layer metric':<36} {'value':>14} {'unit':<12} {'should move':<30} on")
        for name in sorted(values):
            unit, _better, moves, on = LAYERS.get(
                name, ("host-us/txn", "lower", "host_us_per_txn", "-"))
            mark = "*" if wl.name in on or on == "all" else " "
            print(f" {mark}{name:<36} {values[name]:>14.6f} {unit:<12} {moves:<30} {on}")
        units = {name: spec[0] for name, spec in LAYERS.items()}
        listed = manifest["per_layer"]

    for spec in listed:
        if units.get(spec["name"]) != spec["unit"]:
            problems.append(f"unit of {spec['name']} is {units.get(spec['name'])}, "
                            f"BENCHMARK.json says {spec['unit']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"correct: {not problems}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(inputs),
        "failed": len(inputs) - committed,
        "metrics": {
            spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in listed
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
