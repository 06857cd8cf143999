"""Unit tests for the network fabric and the Node RPC layer."""

import pytest

from repro.errors import NodeDown, RemoteError, RpcTimeout
from repro.sim import Kernel, Network, Node


class EchoNode(Node):
    """Test node with a few representative handler shapes."""

    def rpc_echo(self, sender, text):
        return f"{text} from {sender}"

    def rpc_slow_echo(self, sender, text, delay):
        yield self.kernel.timeout(delay)
        return text

    def rpc_boom(self, sender):
        raise ValueError("kapow")

    def rpc_slow_boom(self, sender):
        yield self.kernel.timeout(0.1)
        raise ValueError("delayed kapow")


def make_pair():
    k = Kernel()
    net = Network(k)
    a = EchoNode(k, net, "a")
    b = EchoNode(k, net, "b")
    return k, net, a, b


def run_call(k, caller, *args, **kwargs):
    result = {}

    def proc(k):
        try:
            result["value"] = yield caller.call(*args, **kwargs)
        except Exception as exc:
            result["error"] = exc

    k.process(proc(k))
    k.run()
    return result


def test_basic_request_response():
    k, _net, a, _b = make_pair()
    result = run_call(k, a, "b", "echo", text="hi")
    assert result["value"] == "hi from a"


def test_generator_handler():
    k, _net, a, _b = make_pair()
    result = run_call(k, a, "b", "slow_echo", text="later", delay=2.0)
    assert result["value"] == "later"
    assert k.now >= 2.0


def test_sync_handler_exception_becomes_remote_error():
    k, _net, a, _b = make_pair()
    result = run_call(k, a, "b", "boom")
    assert isinstance(result["error"], RemoteError)
    assert "kapow" in str(result["error"])


def test_generator_handler_exception_becomes_remote_error():
    k, _net, a, _b = make_pair()
    result = run_call(k, a, "b", "slow_boom")
    assert isinstance(result["error"], RemoteError)


def test_unknown_method_is_remote_error():
    k, _net, a, _b = make_pair()
    result = run_call(k, a, "b", "nope")
    assert isinstance(result["error"], RemoteError)
    assert "no such method" in str(result["error"])


def test_call_to_dead_node_times_out():
    k, _net, a, b = make_pair()
    b.crash()
    result = run_call(k, a, "b", "echo", timeout=1.0, text="hi")
    assert isinstance(result["error"], RpcTimeout)


def test_call_from_dead_node_fails_fast():
    k, _net, a, _b = make_pair()
    a.crash()
    result = run_call(k, a, "b", "echo", text="hi")
    assert isinstance(result["error"], NodeDown)


def test_partition_drops_messages_then_heals():
    k, net, a, _b = make_pair()
    net.partition(["a"], ["b"])
    result = run_call(k, a, "b", "echo", timeout=0.5, text="hi")
    assert isinstance(result["error"], RpcTimeout)

    net.heal()
    result = run_call(k, a, "b", "echo", timeout=0.5, text="hi")
    assert result["value"] == "hi from a"


def test_crash_mid_handler_means_no_reply():
    k, _net, a, b = make_pair()

    def killer(k, b):
        yield k.timeout(0.05)
        b.crash()

    k.process(killer(k, b))
    result = run_call(k, a, "b", "slow_echo", timeout=1.0, text="x", delay=0.5)
    assert isinstance(result["error"], RpcTimeout)


def test_crash_interrupts_spawned_processes():
    k, _net, a, _b = make_pair()
    trace = []

    def loop(node):
        while True:
            yield node.sleep(1.0)
            trace.append(node.kernel.now)

    a.spawn(loop(a))

    def killer(k, a):
        yield k.timeout(3.5)
        a.crash()

    k.process(killer(k, a))
    k.run()
    assert trace == [1.0, 2.0, 3.0]


def test_caller_crash_drops_pending_replies():
    k, _net, a, _b = make_pair()
    reply = a.call("b", "slow_echo", timeout=1.0, text="x", delay=0.5)

    def crash_and_revive(k, a):
        yield k.timeout(0.1)
        a.crash()
        yield k.timeout(0.1)
        a.revive()

    k.process(crash_and_revive(k, a))
    k.run()
    # The crash cleared the pending-call table: the reply reaching the
    # revived caller is dropped, and the deadline finds nothing to fail.
    assert not reply.triggered


def test_cast_is_fire_and_forget():
    k, _net, a, b = make_pair()
    received = []

    def handler(sender, text):
        received.append((sender, text))

    b.rpc_note = handler  # type: ignore[attr-defined]
    a.cast("b", "note", text="hello")
    k.run()
    assert received == [("a", "hello")]


def test_late_reply_after_timeout_is_dropped():
    k, _net, a, _b = make_pair()
    # Timeout shorter than the handler delay: the reply arrives after the
    # caller gave up and must be discarded silently.
    result = run_call(k, a, "b", "slow_echo", timeout=0.1, text="x", delay=1.0)
    assert isinstance(result["error"], RpcTimeout)
    k.run()  # drain the late reply; must not blow up


def test_message_counters():
    k, net, a, _b = make_pair()
    run_call(k, a, "b", "echo", text="hi")
    assert net.messages_sent == 2  # request + response
    assert net.messages_dropped == 0


def test_reregistering_live_address_requires_replace():
    k = Kernel()
    net = Network(k)
    Node(k, net, "x")
    # Node.__init__ registers with replace=True, so constructing a second
    # node at the same address silently replaces -- the restart path.
    n2 = Node(k, net, "x")
    assert net.node("x") is n2
