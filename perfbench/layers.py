"""The per-layer table: host self-time per package and per-layer sim numbers.

Host self-time comes from a deterministic profile of the traced run,
folded per ``repro`` package.  Time spent in builtins and the standard
library is charged to the package that called it, so the packages plus
``bench`` (this directory) sum to the profile's total.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, Tuple

from perfbench.workload import Run, percentile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPRO_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src", "repro")

#: metric -> (unit, better, end-to-end metric it should move, workloads).
#: A metric may read 0 on workloads outside its own column (no crash, no
#: scans); ``per_layer`` in BENCHMARK.json lists the ones that are
#: measured on every workload.
LAYERS: Dict[str, Tuple[str, str, str, str]] = {
    "sim.host_us_per_txn": ("host-us/txn", "lower", "host_us_per_txn", "paper-steady"),
    "sim.events_per_txn": ("count/txn", "lower", "host_us_per_txn", "paper-steady"),
    "sim.messages_per_txn": ("count/txn", "lower", "host_us_per_txn", "paper-steady"),
    "sim.rpc_retries": ("count", "lower", "txn_p99_ms", "paper-crash"),
    "kvstore.host_us_per_txn": ("host-us/txn", "lower", "host_us_per_txn", "scan-ssi-2shard"),
    "kvstore.block_lookups_per_row_read": ("count/row", "lower", "host_us_per_txn", "scan-ssi-2shard"),
    "kvstore.read_p50_ms": ("sim-ms", "lower", "txn_p50_ms", "paper-steady"),
    "kvstore.read_p99_ms": ("sim-ms", "lower", "txn_p50_ms", "paper-steady"),
    "kvstore.scan_p50_ms": ("sim-ms", "lower", "txn_p50_ms", "scan-ssi-2shard"),
    "kvstore.scan_p99_ms": ("sim-ms", "lower", "txn_p50_ms", "scan-ssi-2shard"),
    "kvstore.cache_hit_ratio": ("ratio", "higher", "txn_p99_ms", "paper-crash"),
    "kvstore.flush_p99_ms": ("sim-ms", "lower", "recovery_s", "paper-crash"),
    "kvstore.wal_sync_p99_ms": ("sim-ms", "lower", "recovery_s", "paper-crash"),
    "dfs.host_us_per_txn": ("host-us/txn", "lower", "host_us_per_txn", "paper-crash"),
    "storage.host_us_per_txn": ("host-us/txn", "lower", "host_us_per_txn", "paper-crash"),
    "zk.host_us_per_txn": ("host-us/txn", "lower", "host_us_per_txn", "paper-crash"),
    "storage.bytes_written_per_txn": ("B/txn", "lower", "host_us_per_txn", "paper-steady"),
    "txn.host_us_per_txn": ("host-us/txn", "lower", "host_us_per_txn", "paper-steady, scan-ssi-2shard"),
    "txn.begin_p50_ms": ("sim-ms", "lower", "txn_p50_ms", "paper-steady"),
    "txn.commit_p50_ms": ("sim-ms", "lower", "txn_p50_ms", "paper-steady"),
    "txn.commit_p99_ms": ("sim-ms", "lower", "txn_p99_ms", "paper-steady"),
    "txn.certify_p99_ms": ("sim-ms", "lower", "txn_p99_ms", "paper-steady"),
    "txn.log_sync_p99_ms": ("sim-ms", "lower", "txn_p99_ms", "paper-steady"),
    "txn.group_commit_size": ("count", "higher", "txn_p99_ms", "paper-steady"),
    "txn.abort_ratio": ("ratio", "lower", "txn_fail_ratio", "scan-ssi-2shard"),
    "core.host_us_per_txn": ("host-us/txn", "lower", "host_us_per_txn", "paper-crash"),
    "core.recovery_detect_s": ("sim-s", "lower", "recovery_s", "paper-crash"),
    "core.recovery_replay_s": ("sim-s", "lower", "recovery_s", "paper-crash"),
    "core.recovery_region_gate_s": ("sim-s", "lower", "recovery_s", "paper-crash"),
    "core.replayed_fragments": ("count", "lower", "recovery_s", "paper-crash"),
    "core.replayed_write_sets": ("count", "lower", "txn_fail_ratio", "paper-crash"),
    "core.tp_lag_p99_s": ("sim-s", "lower", "peak_rss_mb, recovery_s", "paper-steady, paper-crash"),
    "metrics.host_us_per_txn": ("host-us/txn", "lower", "host_us_per_txn, peak_rss_mb", "paper-steady"),
    "metrics.spans_per_txn": ("count/txn", "lower", "host_us_per_txn, peak_rss_mb", "paper-steady"),
    "check.host_us_per_txn": ("host-us/txn", "lower", "-", "all"),
    "bench.host_us_per_txn": ("host-us/txn", "lower", "-", "all"),
    "bench.trace_overhead": ("ratio", "lower", "-", "all"),
}


def package_of(filename: str) -> str:
    """The layer a source file belongs to, or "" outside the repo."""
    if filename.startswith(BENCH_DIR + os.sep):
        return "bench"
    if filename.startswith(REPRO_DIR + os.sep):
        rest = filename[len(REPRO_DIR) + 1:].split(os.sep)
        return rest[0] if len(rest) > 1 else "repro"
    return ""


def fold_profile(stats: pstats.Stats) -> Dict[str, float]:
    """Self-time seconds per package; external code goes to its callers."""
    raw = stats.stats
    memo: Dict[tuple, Dict[str, float]] = {}

    def shares(func, visiting) -> Dict[str, float]:
        """How ``func``'s self time splits over packages (sums to 1)."""
        pkg = package_of(func[0])
        if pkg:
            return {pkg: 1.0}
        if func in memo:
            return memo[func]
        callers = raw[func][4] if func in raw else {}
        weights = {c: v[2] for c, v in callers.items() if c not in visiting}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: v[1] for c, v in callers.items() if c not in visiting}
            total = sum(weights.values())
        if total <= 0:
            out = {"bench": 1.0}  # a profile root outside the repo
        else:
            out: Dict[str, float] = {}
            for caller, w in weights.items():
                for p, f in shares(caller, visiting | {func}).items():
                    out[p] = out.get(p, 0.0) + f * w / total
        if not visiting:
            memo[func] = out
        return out

    folded: Dict[str, float] = {}
    for func, (_cc, _nc, tt, _ct, _callers) in raw.items():
        for p, f in shares(func, frozenset()).items():
            folded[p] = folded.get(p, 0.0) + tt * f
    return folded


def _stage(spans: dict, stage: str, key: str) -> float:
    return spans.get(stage, {}).get(key, 0.0)


def layer_metrics(run: Run, untraced_host_us_per_txn: float) -> Tuple[Dict[str, float], dict]:
    """Every per-layer metric of a traced run, plus the reconciliation."""
    committed = sum(1 for o in run.outcome if o == "committed")
    stats = pstats.Stats(run.profile)
    folded = fold_profile(stats)
    profile_total = sum(v[2] for v in stats.stats.values())
    m: Dict[str, float] = {}
    for pkg, secs in sorted(folded.items()):
        m[f"{pkg}.host_us_per_txn"] = secs / run.speed * 1e6 / committed
    for name in LAYERS:
        if name.endswith(".host_us_per_txn"):
            m.setdefault(name, 0.0)
    snap = run.snapshot
    comps = snap["components"]
    spans = snap["spans"]
    m["sim.events_per_txn"] = run.events / committed
    m["sim.messages_per_txn"] = comps["network:net"]["counters"]["messages_sent"] / committed
    m["sim.rpc_retries"] = comps["network:net"]["counters"]["rpc_retries"]
    m["kvstore.block_lookups_per_row_read"] = run.cache_lookups / max(run.rows_returned, 1)
    for stage in ("read", "scan"):
        durations = run.stage_durations(stage)
        m[f"kvstore.{stage}_p50_ms"] = percentile(durations, 50) * 1e3 if durations else 0.0
        m[f"kvstore.{stage}_p99_ms"] = percentile(durations, 99) * 1e3 if durations else 0.0
    m["kvstore.cache_hit_ratio"] = run.cache_hits / max(run.cache_lookups, 1)
    m["kvstore.flush_p99_ms"] = _stage(spans, "flush.writeset", "p99") * 1e3
    m["kvstore.wal_sync_p99_ms"] = _stage(spans, "wal.sync", "p99") * 1e3
    written = sum(d["bytes_written"] for d in run.storage["disks"].values())
    m["storage.bytes_written_per_txn"] = written / committed
    begins = run.stage_durations("begin")
    commits = run.stage_durations("commit")
    m["txn.begin_p50_ms"] = percentile(begins, 50) * 1e3
    m["txn.commit_p50_ms"] = percentile(commits, 50) * 1e3
    m["txn.commit_p99_ms"] = percentile(commits, 99) * 1e3
    m["txn.certify_p99_ms"] = _stage(spans, "commit.certify", "p99") * 1e3
    m["txn.log_sync_p99_ms"] = _stage(spans, "log.group_sync", "p99") * 1e3
    tm_commits = sum(c["counters"]["commits"] for k, c in comps.items() if k.startswith("tm:"))
    syncs = spans.get("log.group_sync", {}).get("count", 0)
    m["txn.group_commit_size"] = tm_commits / syncs if syncs else 0.0
    m["txn.abort_ratio"] = run.conflicts / max(run.commit_attempts, 1)
    m["core.recovery_detect_s"] = _stage(spans, "recovery.detect", "max")
    m["core.recovery_replay_s"] = _stage(spans, "recovery.replay", "max")
    m["core.recovery_region_gate_s"] = _stage(spans, "recovery.region_gate", "max")
    rm = comps["rm:rm"]["counters"]
    m["core.replayed_fragments"] = rm["replayed_fragments"]
    m["core.replayed_write_sets"] = rm["replayed_write_sets"]
    m["core.tp_lag_p99_s"] = percentile(run.tp_lags, 99) if run.tp_lags else 0.0
    m["metrics.spans_per_txn"] = sum(s["count"] for s in spans.values()) / committed
    traced_window_us = run.host_s / run.speed * 1e6 / committed
    m["bench.trace_overhead"] = traced_window_us / untraced_host_us_per_txn
    recon = {
        "profile_total_s": profile_total,
        "folded_total_s": sum(folded.values()),
        "profiled_wall_s": run.host_s + run.oracle_host_s,
    }
    return m, recon
