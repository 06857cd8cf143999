"""Tests for the durability-verification ledger."""

import pytest

from repro import ClusterConfig, SimCluster, TABLE
from repro.kvstore.keys import row_key
from repro.workload.verify import CommitLedger


def build(seed=161):
    config = ClusterConfig(seed=seed)
    config.workload.n_rows = 2000
    config.kv.n_regions = 4
    config.kv.wal_sync_interval = 300.0
    config.recovery.client_heartbeat_interval = 0.5
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    return cluster


def committed_txn(handle, rows, tag, wait_flush=True):
    def gen():
        ctx = yield from handle.txn.begin()
        for i in rows:
            handle.txn.write(ctx, TABLE, row_key(i), f"{tag}-{i}")
        yield from handle.txn.commit(ctx, wait_flush=wait_flush)
        return ctx

    return gen()


def test_clean_run_verifies(seed=161):
    cluster = build(seed)
    handle = cluster.add_client()
    ledger = CommitLedger()
    for n in range(5):
        cluster.run(ledger.executed(cluster, committed_txn(handle, [n, n + 50], f"t{n}"), TABLE))
    assert len(ledger) == 5
    assert ledger.verify(cluster) == []


def test_verifies_through_server_failure():
    cluster = build(seed=162)
    handle = cluster.add_client()
    ledger = CommitLedger()
    for n in range(4):
        cluster.run(
            ledger.executed(
                cluster,
                committed_txn(handle, list(range(n * 100, n * 100 + 20)), f"f{n}"),
                TABLE,
            )
        )
    cluster.crash_server(0)
    cluster.run_until(cluster.kernel.now + 15.0)
    assert ledger.verify(cluster) == []


def test_detects_manufactured_loss():
    """The auditor must actually catch losses -- fake one by recording a
    commit that never happened."""
    cluster = build(seed=163)
    handle = cluster.add_client()
    ledger = CommitLedger()
    cluster.run(ledger.executed(cluster, committed_txn(handle, [1], "real"), TABLE))

    from repro.workload.verify import AcknowledgedCommit

    ledger.commits.append(
        AcknowledgedCommit(
            commit_ts=999_999,
            client_id="ghost",
            table=TABLE,
            cells=(("user000000000002", "f", "never-written"),),
        )
    )
    violations = ledger.verify(cluster)
    assert len(violations) == 1
    assert violations[0].row == "user000000000002"
    assert "never-written" in str(violations[0])


def test_read_only_and_unacknowledged_txns_not_recorded():
    cluster = build(seed=164)
    handle = cluster.add_client()
    ledger = CommitLedger()

    def read_only():
        ctx = yield from handle.txn.begin()
        yield from handle.txn.read(ctx, TABLE, row_key(1))
        yield from handle.txn.commit(ctx)
        return ctx

    cluster.run(ledger.executed(cluster, read_only(), TABLE))
    assert len(ledger) == 0


def test_delete_verifies_as_absence():
    cluster = build(seed=165)
    handle = cluster.add_client()
    ledger = CommitLedger()

    def deleter():
        ctx = yield from handle.txn.begin()
        handle.txn.delete(ctx, TABLE, row_key(7))
        yield from handle.txn.commit(ctx, wait_flush=True)
        return ctx

    cluster.run(ledger.executed(cluster, deleter(), TABLE))
    assert ledger.verify(cluster) == []


def test_outcomes_keep_the_complete_history():
    """Aborts and read-only commits stay out of the durability audit but
    land in :attr:`outcomes`, so the ledger accounts for every txn."""
    cluster = build(seed=166)
    handle = cluster.add_client()
    ledger = CommitLedger()

    cluster.run(ledger.executed(cluster, committed_txn(handle, [1, 2], "w"), TABLE))

    def read_only():
        ctx = yield from handle.txn.begin()
        yield from handle.txn.read(ctx, TABLE, row_key(1))
        yield from handle.txn.commit(ctx)
        return ctx

    cluster.run(ledger.executed(cluster, read_only(), TABLE))

    def aborter():
        ctx = yield from handle.txn.begin()
        handle.txn.write(ctx, TABLE, row_key(3), "doomed")
        yield from handle.txn.abort(ctx)
        return ctx

    cluster.run(ledger.executed(cluster, aborter(), TABLE))

    assert len(ledger) == 1  # only the acked writer is audited
    assert ledger.outcome_counts() == {
        "aborted": 1, "committed": 1, "read_only": 1,
    }
    by_outcome = {rec.outcome: rec for rec in ledger.outcomes}
    assert by_outcome["committed"].commit_ts is not None
    assert by_outcome["committed"].n_writes == 2
    assert by_outcome["read_only"].commit_ts is not None
    assert by_outcome["read_only"].n_writes == 0
    assert by_outcome["aborted"].commit_ts is None
    assert by_outcome["aborted"].n_writes == 1
    assert ledger.verify(cluster) == []


def test_record_outcome_alone_skips_the_audit():
    cluster = build(seed=167)
    handle = cluster.add_client()
    ledger = CommitLedger()

    ctx = cluster.run(committed_txn(handle, [5], "solo"))
    ledger.record_outcome(ctx)

    assert len(ledger) == 0
    assert ledger.outcome_counts() == {"committed": 1}


def test_back_to_back_audits_get_distinct_auditors():
    """Two audits with no event in between must not reuse an address.

    With recovery off, adding the auditor runs no event, so an empty
    ledger's audit leaves the event count where it was.
    """
    config = ClusterConfig(seed=161)
    config.workload.n_rows = 2000
    config.kv.n_regions = 4
    config.recovery.enabled = False
    cluster = SimCluster(config).start()
    ledger = CommitLedger()
    assert ledger.verify(cluster) == []
    assert ledger.verify(cluster) == []
    auditors = [h.node.addr for h in cluster.clients]
    assert len(auditors) == 2 and len(set(auditors)) == 2
