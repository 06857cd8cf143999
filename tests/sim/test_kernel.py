"""Unit tests for the discrete-event kernel, events, and processes."""

import gc
import types

import pytest

from repro.errors import ScheduleError, SimulationError
from repro.sim import Interrupt, Kernel, Network, Node
from repro.sim.process import Process


def test_timeout_advances_clock():
    k = Kernel()
    fired = []

    def proc(k):
        yield k.timeout(1.5)
        fired.append(k.now)
        yield k.timeout(0.5)
        fired.append(k.now)

    k.process(proc(k))
    k.run()
    assert fired == [1.5, 2.0]


def test_run_until_stops_at_time():
    k = Kernel()
    fired = []

    def proc(k):
        for _ in range(10):
            yield k.timeout(1.0)
            fired.append(k.now)

    k.process(proc(k))
    k.run(until=3.5)
    assert fired == [1.0, 2.0, 3.0]
    assert k.now == 3.5


def test_process_return_value():
    k = Kernel()

    def proc(k):
        yield k.timeout(1)
        return 42

    p = k.process(proc(k))
    assert k.run_until_complete(p) == 42


def test_event_succeed_wakes_waiter_with_value():
    k = Kernel()
    ev = k.event()
    got = []

    def waiter(k, ev):
        value = yield ev
        got.append(value)

    def firer(k, ev):
        yield k.timeout(2)
        ev.succeed("hello")

    k.process(waiter(k, ev))
    k.process(firer(k, ev))
    k.run()
    assert got == ["hello"]


def test_event_fail_raises_in_waiter():
    k = Kernel()
    ev = k.event()
    caught = []

    def waiter(k, ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def firer(k, ev):
        yield k.timeout(1)
        ev.fail(ValueError("boom"))

    k.process(waiter(k, ev))
    k.process(firer(k, ev))
    k.run()
    assert caught == ["boom"]


def test_event_cannot_trigger_twice():
    k = Kernel()
    ev = k.event()
    ev.succeed(1)
    with pytest.raises(ScheduleError):
        ev.succeed(2)


def test_all_of_waits_for_every_child():
    k = Kernel()
    done = []

    def proc(k):
        values = yield k.all_of([k.timeout(1, "a"), k.timeout(3, "b"), k.timeout(2, "c")])
        done.append((k.now, values))

    k.process(proc(k))
    k.run()
    assert done == [(3.0, ["a", "b", "c"])]


def test_any_of_fires_on_first_child():
    k = Kernel()
    done = []

    def proc(k):
        slow = k.timeout(5, "slow")
        fast = k.timeout(1, "fast")
        first = yield k.any_of([slow, fast])
        done.append((k.now, first.value))

    k.process(proc(k))
    k.run()
    assert done[0] == (1.0, "fast")


def test_interrupt_raises_at_wait_point():
    k = Kernel()
    trace = []

    def victim(k):
        try:
            yield k.timeout(100)
            trace.append("not reached")
        except Interrupt as intr:
            trace.append(("interrupted", intr.cause, k.now))

    def killer(k, proc):
        yield k.timeout(2)
        proc.interrupt("crash")

    victim_proc = k.process(victim(k))
    k.process(killer(k, victim_proc))
    k.run()
    assert trace == [("interrupted", "crash", 2.0)]


def test_interrupt_finished_process_is_noop():
    k = Kernel()

    def quick(k):
        yield k.timeout(1)

    p = k.process(quick(k))
    k.run()
    p.interrupt("too late")  # must not raise
    k.run()


def test_unhandled_process_exception_escalates_in_strict_mode():
    k = Kernel(strict=True)

    def bad(k):
        yield k.timeout(1)
        raise RuntimeError("bug in process")

    k.process(bad(k))
    with pytest.raises(SimulationError):
        k.run()


def test_handled_process_exception_does_not_escalate():
    k = Kernel(strict=True)
    caught = []

    def bad(k):
        yield k.timeout(1)
        raise RuntimeError("bug")

    def waiter(k, p):
        try:
            yield p
        except RuntimeError as exc:
            caught.append(str(exc))

    p = k.process(bad(k))
    k.process(waiter(k, p))
    k.run()
    assert caught == ["bug"]


def test_non_strict_mode_swallows_process_failures():
    k = Kernel(strict=False)

    def bad(k):
        yield k.timeout(1)
        raise RuntimeError("bug")

    k.process(bad(k))
    k.run()
    assert len(k.dead_processes) == 1


def test_yielding_non_event_fails_the_process():
    k = Kernel(strict=True)

    def bad(k):
        yield 42

    k.process(bad(k))
    with pytest.raises(SimulationError):
        k.run()


def test_same_seed_same_trace():
    def run(seed):
        k = Kernel(seed=seed)
        trace = []

        def proc(k, name):
            for _ in range(20):
                yield k.timeout(k.rng.uniform(0, 1))
                trace.append((name, round(k.now, 9)))

        for name in ("a", "b", "c"):
            k.process(proc(k, name))
        k.run()
        return trace

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_negative_timeout_rejected():
    k = Kernel()
    with pytest.raises(ScheduleError):
        k.timeout(-1)


def test_run_until_complete_detects_deadlock():
    k = Kernel()

    def stuck(k):
        yield k.event()  # never triggered

    p = k.process(stuck(k))
    with pytest.raises(SimulationError, match="deadlock"):
        k.run_until_complete(p)


def test_immediate_events_processed_in_fifo_order():
    k = Kernel()
    order = []

    def proc(k, name):
        yield k.timeout(0)
        order.append(name)

    for name in ("first", "second", "third"):
        k.process(proc(k, name))
    k.run()
    assert order == ["first", "second", "third"]


def _cyclic_garbage(scenario):
    """Run ``scenario`` with automatic GC off, then return what a full
    collection finds unreachable (saved under ``gc.DEBUG_SAVEALL``).

    ``scenario`` returns the objects the simulation itself keeps (the
    kernel, nodes); they stay referenced while collecting, so only what
    the run dropped can show up.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    debug = gc.get_debug()
    saved = len(gc.garbage)
    gc.disable()
    try:
        keep = scenario()
        gc.set_debug(debug | gc.DEBUG_SAVEALL)
        gc.collect()
        found = gc.garbage[saved:]
        del keep
        return found
    finally:
        gc.set_debug(debug)
        del gc.garbage[saved:]
        if was_enabled:
            gc.enable()


def _processes_and_generators(found, *gen_functions):
    codes = {fn.__code__ for fn in gen_functions}
    return [
        o for o in found
        if isinstance(o, Process)
        or (type(o) is types.GeneratorType and o.gi_code in codes)
    ]


def test_finished_processes_are_freed_without_the_cyclic_gc():
    def returns(k):
        yield k.timeout(1)
        return "done"

    def raises(k):
        yield k.timeout(1)
        raise RuntimeError("handled by the waiter")

    def catches(k, ev):
        try:
            yield ev  # fails; the process defuses it and handles it
        except ValueError:
            pass
        return "recovered"

    def waits(k, p):
        try:
            yield p
        except (RuntimeError, ScheduleError):
            pass

    def victim(k):
        yield k.timeout(100)

    def killer(k, p):
        yield k.timeout(2)
        p.interrupt("crash")

    def yields_non_event(k):
        yield 42

    def scenario():
        k = Kernel(strict=True)
        k.process(returns(k))
        k.process(waits(k, k.process(raises(k))))
        ev = k.event()
        k.process(catches(k, ev))
        ev.fail(ValueError("defused"))
        k.process(victim(k)).interrupt("before the first step")
        k.process(killer(k, k.process(victim(k))))
        k.process(waits(k, k.process(yields_non_event(k))))
        k.run()
        # Non-Interrupt failures are kept for post-mortems by design.
        assert [type(exc) for _, exc in k.dead_processes] == [
            ScheduleError, RuntimeError,
        ]
        return k

    found = _cyclic_garbage(scenario)
    assert _processes_and_generators(
        found, returns, raises, catches, waits, victim, killer,
        yields_non_event,
    ) == []


class _HandlerNode(Node):
    def rpc_slow_echo(self, sender, text):
        yield self.kernel.timeout(0.01)
        return text


def test_finished_rpc_handler_processes_are_freed_without_the_cyclic_gc():
    def caller(k, node):
        return (yield node.call("b", "slow_echo", text="hi"))

    def scenario():
        k = Kernel(strict=True)
        net = Network(k)
        a = _HandlerNode(k, net, "a")
        b = _HandlerNode(k, net, "b")
        assert k.run_until_complete(k.process(caller(k, a))) == "hi"
        k.run()
        assert not b._procs
        return k, net, a, b

    found = _cyclic_garbage(scenario)
    assert _processes_and_generators(
        found, caller, _HandlerNode.rpc_slow_echo, Node._run_handler
    ) == []
