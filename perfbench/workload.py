"""The benchmark's workloads, its open-loop generator and one measured run.

A workload is a cluster configuration plus an arrival schedule.  The
schedule is generated from the seed before the run: Poisson arrivals at a
fixed offered rate, each naming a client machine and its operations.  One
sim process dispatches the arrivals at their intended times and spawns
one transaction process per arrival, so a stalled system keeps receiving
load and every transaction is timed from when it was due, not from when
it got to start.

A run steps simulated time forward in fixed increments and inspects the
cluster between steps.  ``Kernel.run(until=...)`` adds no event, so the
stepping (and any state it reads) leaves the schedule unchanged.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import random
import resource
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from perfbench.probe import INTERVAL as PROBE_INTERVAL
from perfbench.probe import SpeedProbe
from repro.check import SerializabilityChecker, SIChecker
from repro.cluster import TABLE, SimCluster
from repro.config import ClusterConfig
from repro.errors import ReproError, TxnConflict
from repro.kvstore.keys import row_key
from repro.metrics.spans import tracer_for
from repro.sim.chaos import preload_value_fn
from repro.sim.events import Interrupt
from repro.sim.rng import zipfian_sampler

N_ROWS = 50_000
CLIENT_MACHINES = 4
#: Simulated seconds per main-loop step: the resolution of ``recovery_s``.
STEP = 0.002
#: Conflict retries per arrival before it counts as failed.
MAX_RETRIES = 8
#: Give up on a run whose work is not done this long after the last
#: arrival (simulated seconds) or after this much host time.
SIM_LIMIT = 120.0
HOST_LIMIT = 150.0

READ, WRITE, SCAN = "read", "write", "scan"


@dataclass(frozen=True)
class Workload:
    """One named workload: cluster shape, traffic mix and fault plan."""

    name: str
    mix: str  # "paper" (10 distinct uniform rows, 50/50) or "scan"
    arrivals: int
    rate: float  # offered transactions per simulated second
    isolation: str = "si"
    tm_shards: int = 1
    #: Simulated seconds the measured window runs past the arrival span,
    #: so that every seed measures the same stretch of simulated time
    #: (the window still runs on until the work is done).
    drain: float = 1.0
    #: Simulated seconds after the first arrival when rs0 and dn0 crash.
    server_crash_at: Optional[float] = None
    #: When the last client machine stops taking arrivals; it crashes as
    #: soon as its last in-flight transaction has returned.
    client_crash_at: Optional[float] = None

    def config(self, seed: int) -> ClusterConfig:
        cfg = ClusterConfig(seed=seed)
        cfg.workload.n_rows = N_ROWS
        cfg.kv.n_region_servers = 2
        cfg.kv.n_regions = 8
        cfg.txn.isolation = self.isolation
        cfg.txn.tm_shards = self.tm_shards
        return cfg

    def params(self) -> dict:
        return {
            "mix": self.mix,
            "rows": N_ROWS,
            "region_servers": 2,
            "regions": 8,
            "client_machines": CLIENT_MACHINES,
            "arrivals": self.arrivals,
            "offered_tps": self.rate,
            "isolation": self.isolation,
            "tm_shards": self.tm_shards,
            "server_crash_at_s": self.server_crash_at,
            "client_crash_at_s": self.client_crash_at,
            "drain_s": self.drain,
        }


#: Why each workload is in the benchmark: see BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-steady",
            mix="paper",
            arrivals=1200,
            rate=200.0,
        ),
        # 120 tps, not paper-steady's 200: after the crash one region
        # server carries all 8 regions, and at 200 tps it runs so close to
        # its capacity that the stall's backlog never drains -- every later
        # transaction then waits about 2.4 s in a standing queue that a 5%
        # change in service time would empty or double.
        Workload(
            name="paper-crash",
            mix="paper",
            arrivals=2880,
            rate=120.0,
            server_crash_at=4.0,
            client_crash_at=12.0,
            drain=4.0,
        ),
        Workload(
            name="scan-ssi-2shard",
            mix="scan",
            arrivals=1000,
            rate=200.0,
            isolation="ssi",
            tm_shards=2,
        ),
    )
}


@dataclass
class Arrival:
    gap: float  # simulated seconds since the previous arrival
    machine: int
    ops: tuple  # ((kind, row, scan_length), ...)


def make_inputs(wl: Workload, seed: int) -> List[Arrival]:
    """The arrival schedule of one workload; a pure function of the seed.

    Arrival times are a Poisson process conditioned on its count: the
    sorted draws of ``arrivals`` uniform times over ``arrivals / rate``
    simulated seconds.  Locally it is a Poisson process, but every seed
    offers the same number of transactions over the same span, so
    throughput differs between seeds only by what the system did.
    """
    rng = random.Random(seed)
    span = wl.arrivals / wl.rate
    times = sorted(rng.random() * span for _ in range(wl.arrivals))
    gaps = [b - a for a, b in zip([0.0] + times, times)]
    out = []
    if wl.mix == "paper":
        for gap in gaps:
            rows = rng.sample(range(N_ROWS), 10)
            ops = tuple(
                (READ if rng.random() < 0.5 else WRITE, row_key(r), 0)
                for r in rows
            )
            out.append(Arrival(gap, rng.randrange(CLIENT_MACHINES), ops))
        return out
    # YCSB-E: 95% scans with a scrambled-zipfian start over the current
    # key space and a uniform length in 1..100; 5% insert transactions,
    # each adding two fresh rows (so about half of them span both TM
    # shards and take the cross-shard commit).
    zipf = zipfian_sampler(N_ROWS, 0.99, rng)
    inserted = 0
    for gap in gaps:
        if rng.random() < 0.95:
            start = (zipf() * 2654435761) % (N_ROWS + inserted)
            ops = ((SCAN, row_key(start), 1 + rng.randrange(100)),)
        else:
            ops = tuple(
                (WRITE, row_key(N_ROWS + inserted + k), 0) for k in range(2)
            )
            inserted += 2
        out.append(Arrival(gap, rng.randrange(CLIENT_MACHINES), ops))
    return out


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


class Run:
    """One cluster, one pass over the arrival schedule, and its checks."""

    def __init__(self, wl: Workload, seed: int, inputs: List[Arrival],
                 traced: bool = False) -> None:
        self.wl = wl
        self.seed = seed
        self.inputs = inputs
        self.traced = traced
        self.profile = cProfile.Profile() if traced else None
        self.probe = SpeedProbe()
        # Per arrival: stage names and the sim times that close them; the
        # first time is the intended arrival.
        self.stages: List[Optional[List[str]]] = [None] * len(inputs)
        self.times: List[Optional[List[float]]] = [None] * len(inputs)
        self.outcome: List[Optional[str]] = [None] * len(inputs)
        #: Per arrival: the program's span key of each attempt.
        self.txn_keys: List[List[str]] = [[] for _ in inputs]
        self.finished = 0
        self.conflicts = 0
        self.commit_attempts = 0
        self.rows_returned = 0
        #: row -> (commit_ts, value) of its last acknowledged commit.
        self.last_ack: Dict[str, Tuple[int, str]] = {}
        #: rows written by transactions whose outcome is unknown.
        self.maybe: Dict[str, set] = {}
        self.inflight = [0] * CLIENT_MACHINES
        self.draining: Optional[int] = None
        self.client_crashed_at: Optional[float] = None
        self.server_crashed_at: Optional[float] = None
        self.recovered_at: Optional[float] = None
        # (commit_ts, ack time) of update commits, in ack order.
        self.unpersisted: deque = deque()
        self.tp_lags: List[float] = []
        #: Why the run itself went wrong (it then reports incorrect).
        self.errors: List[str] = []
        #: Transactions that failed with an error (they count as failed).
        self.txn_errors: List[str] = []

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def setup(self) -> float:
        """Build, preload and warm the cluster; returns host seconds
        scaled to the reference speed."""
        gc.collect()
        first = len(self.probe.samples)
        self.setup_raw_s = 0.0
        cluster = self._setup_step(SimCluster, self.wl.config(self.seed))
        self._setup_step(cluster.start)
        self._setup_step(cluster.preload)
        self._setup_step(cluster.warm_caches)
        for i in range(CLIENT_MACHINES):
            self._setup_step(cluster.add_client, f"bench{i}")
        self.probe()
        self.setup_s = self.setup_raw_s / self.probe.slowdown(first)
        self.cluster = cluster
        if self.traced:
            self.recorder = cluster.attach_history_recorder()
        return self.setup_s

    def _setup_step(self, fn, *args):
        """Probe the host speed, then time one step of the set-up.

        One probe at a time, as inside the measured window: a probe run
        right after another finds its ring still in cache and runs fast.
        """
        self.probe()
        started = time.perf_counter()
        result = fn(*args)
        self.setup_raw_s += time.perf_counter() - started
        return result

    # ------------------------------------------------------------------
    # sim processes
    # ------------------------------------------------------------------
    def _dispatcher(self):
        cluster = self.cluster
        kernel = cluster.kernel
        node = cluster.observer
        for i, arrival in enumerate(self.inputs):
            yield node.sleep(arrival.gap)
            machine = arrival.machine
            wl = self.wl
            admit = False
            if (
                wl.client_crash_at is not None
                and kernel.now - self.t0 >= wl.client_crash_at
                and self.draining is None
            ):
                self.draining = CLIENT_MACHINES - 1
                # The machine crashes when its last transaction returns, so
                # it must have one: if it is idle it takes this arrival.
                admit = self.inflight[self.draining] == 0
            if admit:
                machine = self.draining
            elif machine == self.draining:
                machine = (machine + 1) % CLIENT_MACHINES
            handle = cluster.clients[machine]
            self.inflight[machine] += 1
            proc = handle.node.spawn(
                self._txn(i, machine, handle, arrival.ops, kernel.now),
                name=f"bench-txn-{i}",
            )
            proc.defuse()

    def _txn(self, i: int, machine: int, handle, ops, arrival: float):
        kernel = self.cluster.kernel
        txn = handle.txn
        stages: List[str] = []
        times = [arrival]
        self.stages[i], self.times[i] = stages, times
        values = {row: f"s{self.seed}-a{i}" for kind, row, _n in ops if kind == WRITE}

        def mark(stage: str) -> None:
            stages.append(stage)
            times.append(kernel.now)

        mark("queue")
        attempt = 0
        outcome = "error"
        try:
            while True:
                attempt += 1
                ctx = yield from txn.begin()
                mark("begin")
                self.txn_keys[i].append(f"{txn.client_id}:{ctx.txn_id}")
                for kind, row, length in ops:
                    if kind == READ:
                        value = yield from txn.read(ctx, TABLE, row)
                        mark("read")
                        self.rows_returned += value is not None
                    elif kind == SCAN:
                        rows = yield from txn.scan(ctx, TABLE, row, None, limit=length)
                        mark("scan")
                        self.rows_returned += len(rows)
                    else:
                        txn.write(ctx, TABLE, row, values[row])
                self.commit_attempts += 1
                try:
                    yield from txn.commit(ctx)
                except TxnConflict:
                    mark("commit")
                    self.conflicts += 1
                    if attempt > MAX_RETRIES:
                        outcome = "aborted"
                        return
                    yield handle.node.sleep(
                        txn.retry_policy.backoff(attempt, handle.node.retry_rng)
                    )
                    mark("backoff")
                    continue
                mark("commit")
                outcome = "committed"
                if values:
                    for row, value in values.items():
                        last = self.last_ack.get(row)
                        if last is None or ctx.commit_ts > last[0]:
                            self.last_ack[row] = (ctx.commit_ts, value)
                    self.unpersisted.append((ctx.commit_ts, kernel.now))
                return
        except Interrupt:
            outcome = "lost"  # the client machine crashed under it
            raise
        except ReproError as exc:
            self.txn_errors.append(f"arrival {i}: {exc!r}")
        finally:
            if outcome not in ("committed", "aborted"):
                for row, value in values.items():
                    self.maybe.setdefault(row, set()).add(value)
            self.outcome[i] = outcome
            self.finished += 1
            self.inflight[machine] -= 1
            if (
                machine == self.draining
                and self.inflight[machine] == 0
                and self.client_crashed_at is None
                and outcome != "lost"
            ):
                # Crash now, from the process that just returned: the flush
                # its commit spawned has not started yet, so only client
                # recovery can bring that write-set to the store.
                self.client_crashed_at = kernel.now
                self.cluster.crash_client(machine)

    # ------------------------------------------------------------------
    # the measured window
    # ------------------------------------------------------------------
    def _work_done(self) -> bool:
        if self.finished < len(self.inputs):
            return False
        if self.wl.server_crash_at is not None:
            if self.recovered_at is None:
                return False
        if self.wl.client_crash_at is not None:
            if self.client_crashed_at is None:
                return False
            rm = self.cluster.rm
            if rm.metrics()["counters"]["client_recoveries"] < 1:
                return False
        return True

    def _all_regions_online(self) -> bool:
        online = 0
        for rs in self.cluster.servers:
            if rs.alive:
                online += sum(1 for r in rs.regions.values() if r.online)
        return online >= self.cluster.config.kv.n_regions

    def _sample_tp_lag(self) -> None:
        tp = self.cluster.rm.global_tp
        pending = self.unpersisted
        while pending and pending[0][0] <= tp:
            pending.popleft()
        now = self.cluster.kernel.now
        self.tp_lags.append(now - pending[0][1] if pending else 0.0)

    def _probe(self) -> None:
        if self.profile is not None:
            self.profile.disable()
        self.probe_s += self.probe()
        if self.profile is not None:
            self.profile.enable()

    def measure(self) -> None:
        """Run the schedule to completion; times it in host seconds."""
        cluster = self.cluster
        kernel = cluster.kernel
        self.t0 = kernel.now
        cluster.observer.spawn(self._dispatcher(), name="bench-dispatch").defuse()
        crash_at = None
        if self.wl.server_crash_at is not None:
            crash_at = self.t0 + self.wl.server_crash_at
        end = self.t0 + self.wl.arrivals / self.wl.rate + self.wl.drain
        limit = end + SIM_LIMIT
        step = 0
        if self.profile is not None:
            self.profile.enable()
        self.probe_s = 0.0
        first_probe = len(self.probe.samples)
        started = time.perf_counter()
        next_probe = started + PROBE_INTERVAL
        t = kernel.now
        while t < end or not self._work_done():
            if t >= limit or time.perf_counter() - started > HOST_LIMIT:
                self.errors.append(f"work not done by t={t:.3f}")
                break
            if crash_at is not None and t + STEP >= crash_at and self.server_crashed_at is None:
                kernel.run(until=crash_at)
                cluster.crash_server(0)
                self.server_crashed_at = t = crash_at
            t += STEP
            kernel.run(until=t)
            step += 1
            if (
                self.server_crashed_at is not None
                and self.recovered_at is None
                and self._all_regions_online()
            ):
                self.recovered_at = t
            if self.traced and step % 10 == 0:
                self._sample_tp_lag()
            if time.perf_counter() >= next_probe:
                self._probe()
                next_probe = time.perf_counter() + PROBE_INTERVAL
        self.host_s = time.perf_counter() - started - self.probe_s
        self.speed = self.probe.slowdown(first_probe)
        if self.profile is not None:
            self.profile.disable()
        self.sim_s = kernel.now - self.t0
        self.snapshot = cluster.metrics_snapshot()
        self.storage = cluster.storage_stats()
        self.events = kernel.event_count
        self.cache_lookups = sum(rs.cache.hits + rs.cache.misses for rs in cluster.servers)
        self.cache_hits = sum(rs.cache.hits for rs in cluster.servers)

    # ------------------------------------------------------------------
    # correctness checks (outside the measured window)
    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Let every acknowledged write-set reach the store: run until no
        live client has a write-set flush in flight."""
        cluster = self.cluster
        kernel = cluster.kernel
        tracer = tracer_for(kernel)
        live = tuple(f"{h.client_id}:" for h in cluster.clients if h.node.alive)
        limit = kernel.now + 60.0
        while kernel.now < limit and any(
            s.stage == "flush.writeset" and s.txn.startswith(live)
            for s in tracer.open_spans()
        ):
            kernel.run(until=kernel.now + 0.01)

    def lost_writes(self) -> int:
        """Rows whose value is not that of their last acknowledged commit
        (or, for never-written rows, not the preloaded one), read back
        through a fresh transaction on a live client."""
        cluster = self.cluster
        handle = next(h for h in cluster.clients if h.node.alive)
        seen: Dict[str, str] = {}

        def read_back():
            ctx = yield from handle.txn.begin()
            rows = yield from handle.txn.scan(ctx, TABLE, "", None, limit=10**9)
            seen.update(rows)
            yield from handle.txn.abort(ctx)

        cluster.run(read_back())
        initial = preload_value_fn(N_ROWS)
        bad = 0
        for row in set(seen) | set(self.last_ack) | {row_key(i) for i in range(N_ROWS)}:
            want = {self.last_ack[row][1]} if row in self.last_ack else {initial(TABLE, row, "f")}
            want |= self.maybe.get(row, set())
            if seen.get(row) not in want:
                bad += 1
        return bad

    def oracle(self) -> dict:
        """Audit the recorded history (traced runs only)."""
        if self.profile is not None:
            self.profile.enable()
        started = time.perf_counter()
        events = self.recorder.events
        si = SIChecker(events, initial_value=preload_value_fn(N_ROWS)).check()
        out = {"history_events": len(events), "si_anomalies": len(si.anomalies)}
        if self.wl.isolation == "ssi":
            ser = SerializabilityChecker(events, mode="ssi").check()
            out["cycles"] = len(ser.anomalies)
        self.oracle_host_s = time.perf_counter() - started
        if self.profile is not None:
            self.profile.disable()
        return out

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def committed_latencies(self) -> List[float]:
        return [
            self.times[i][-1] - self.times[i][0]
            for i, o in enumerate(self.outcome)
            if o == "committed"
        ]

    def reconcile(self) -> int:
        """Stages that disagree with the program's own span of them.

        A transaction's stages are contiguous, so they sum to its latency
        by construction.  What can drift is their meaning: each attempt's
        ``begin`` and ``commit`` must equal, to the last bit, the
        ``txn.begin`` and ``commit.rpc`` spans the program recorded for it.
        """
        tracer = tracer_for(self.cluster.kernel)
        own = {"begin": "txn.begin", "commit": "commit.rpc"}
        bad = 0
        for stages, times, keys in zip(self.stages, self.times, self.txn_keys):
            attempt = -1
            for k, stage in enumerate(stages or ()):
                attempt += stage == "begin"
                if stage in own:
                    theirs = tracer.sum_durations(keys[attempt], (own[stage],))
                    bad += theirs != times[k + 1] - times[k]
        return bad

    def stage_durations(self, stage: str) -> List[float]:
        out = []
        for stages, times in zip(self.stages, self.times):
            if stages is None:
                continue
            for k, name in enumerate(stages):
                if name == stage:
                    out.append(times[k + 1] - times[k])
        return out

    def fingerprint(self) -> str:
        """Digest of every simulated outcome of the run."""
        h = hashlib.sha256()
        h.update(repr((self.outcome, self.times, self.stages)).encode())
        h.update(repr(sorted(self.last_ack.items())).encode())
        h.update(repr((self.events, self.sim_s, self.recovered_at,
                       self.client_crashed_at)).encode())
        snap = dict(self.snapshot)
        comps = {k: v for k, v in snap["components"].items() if not k.startswith("oracle:")}
        h.update(repr(sorted(comps.items())).encode())
        h.update(repr(snap["spans"]).encode())
        return h.hexdigest()


def build_and_run(wl: Workload, seed: int, inputs: List[Arrival],
                  traced: bool = False) -> Run:
    """Set up, run and check one repetition."""
    run = Run(wl, seed, inputs, traced=traced)
    run.setup()
    run.measure()
    # The process's peak resident set so far.  Only the first repeat's is
    # reported: later ones also hold what earlier repeats left behind.
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run.settle()
    run.lost = run.lost_writes()
    return run
