"""Host-speed probe: scales wall-clock figures to a reference speed.

On a shared host the speed a single thread gets drifts by up to a
quarter from one minute to the next.  On a 2-vCPU Xeon VM shared with
other tenants, 12 same-seed repeats of ``paper-steady`` gave a window
wall-clock with a coefficient of variation of 10-15%.  A run therefore
times a fixed slice of interpreter work every few milliseconds, between
simulation steps, and divides its host figures by how much slower than
the reference that slice ran.  In the same repeats the scaled figures
varied by 1.5-3%.

The slice is bench code on builtins only, so no change to the program
moves it.  It has two halves, because a busy neighbour slows tight
interpreter loops and cache-missing code by different factors and the
simulator does both: a heap of timed generator wake-ups (a miniature of
the simulator's kernel) and a pointer chase around a 20,000-object ring.
"""

from __future__ import annotations

import gc
import heapq
import random
import time
from typing import List

#: Host seconds between two probes inside a measured window.
INTERVAL = 0.010
#: What one probe takes at the reference speed (about what it takes on a
#: quiet 2 GHz Xeon vCPU).
REFERENCE_S = 0.0002


class _Link:
    __slots__ = ("value", "next")

    def __init__(self, value: int) -> None:
        self.value = value
        self.next = self


def _wakeups(n: int):
    for k in range(n):
        yield k


class SpeedProbe:
    """Times the fixed slice; keeps every sample it took."""

    def __init__(self) -> None:
        ring = [_Link(i) for i in range(20_000)]
        order = list(range(len(ring)))
        random.Random(0).shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            ring[a].next = ring[b]
        self._at = ring[0]
        self.samples: List[float] = []

    def __call__(self) -> float:
        """Run the slice once; returns (and keeps) its host seconds.

        The garbage collector is held off meanwhile, so a collection the
        program owes is not charged to the probe.
        """
        enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        queue = [(0.0, seq, _wakeups(20)) for seq in range(8)]
        seq = 8
        while queue:
            when, _seq, proc = heapq.heappop(queue)
            for value in proc:
                heapq.heappush(queue, (when + 0.001 * (value % 3 + 1), seq, proc))
                seq += 1
                break
        link, total = self._at, 0
        for _ in range(400):
            link = link.next
            total += link.value
        self._at = link
        elapsed = time.perf_counter() - started
        if enabled:
            gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def slowdown(self, since: int = 0) -> float:
        """Mean probe time of the samples from ``since`` on, relative to
        the reference (above 1: the host ran slower)."""
        taken = self.samples[since:]
        return sum(taken) / len(taken) / REFERENCE_S
