"""``recovery_s`` stays right in a run past the span tracer's 200k cap.

The tracer keeps only the newest 200,000 finished spans, so a long run
drops its recovery spans from ``tracer.spans()``.  The benchmark reads
recovery from region states and the untrimmed stage aggregates instead.

Run with ``python3 -m pytest perfbench -q`` from the repository root
(about half a minute).
"""

import os
import sys
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workload import STEP, WORKLOADS, Run, make_inputs  # noqa: E402
from repro.metrics.spans import tracer_for  # noqa: E402

SEED = 5


def _measure(wl, inputs):
    run = Run(wl, SEED, inputs)
    run.setup()
    run.measure()
    return run


def test_recovery_s_survives_span_cap():
    short_wl = replace(WORKLOADS["paper-crash"], client_crash_at=None)
    short_inputs = make_inputs(short_wl, SEED)
    # The same schedule followed by five times as many arrivals again.
    # Recovery ends long before the short schedule does, so it must read
    # the same in both runs.
    more = make_inputs(replace(short_wl, arrivals=5 * short_wl.arrivals), SEED + 1)
    long_wl = replace(short_wl, arrivals=len(short_inputs) + len(more))

    short = _measure(short_wl, short_inputs)
    gates = tracer_for(short.cluster.kernel).spans(stage="recovery.region_gate")
    assert gates, "the short run keeps every span"
    truth = max(s.end_time for s in gates) - short.server_crashed_at
    recovery_s = short.recovered_at - short.server_crashed_at
    assert 0.0 <= recovery_s - truth < STEP + 1e-9

    long = _measure(long_wl, short_inputs + more)
    assert not long.errors
    tracer = tracer_for(long.cluster.kernel)
    assert len(tracer.spans()) == 200_000
    assert not tracer.spans(stage="recovery.region_gate"), "past the cap"
    assert (
        long.snapshot["spans"]["recovery.region_gate"]["count"]
        == short.snapshot["spans"]["recovery.region_gate"]["count"]
    )
    assert long.recovered_at - long.server_crashed_at == recovery_s
