"""Tests for the cluster builder: preload, cache sizing/warming, clients,
and end-to-end determinism."""

import pytest

from repro import ClusterConfig, SimCluster, TABLE, paper_setup, small_setup
from repro.kvstore.keys import row_key
from repro.workload import WorkloadDriver


def make(seed=71, n_rows=4000, n_regions=4):
    config = ClusterConfig(seed=seed)
    config.workload.n_rows = n_rows
    config.kv.n_regions = n_regions
    return SimCluster(config).start()


def test_start_brings_everything_online():
    cluster = make()
    status = cluster.cluster_status()
    assert len(status["assignments"]) == 4
    assert all(status["online"].values())
    assert sorted(status["live_servers"]) == ["rs0", "rs1"]


def test_preload_covers_every_row():
    cluster = make()
    assert cluster.preload() == 4000
    handle = cluster.add_client()

    def read(i):
        ctx = yield from handle.txn.begin()
        return (yield from handle.txn.read(ctx, TABLE, row_key(i)))

    for i in (0, 1, 1999, 2000, 3999):
        assert cluster.run(read(i)) == f"init-{i}"


def test_warm_caches_fills_hosted_blocks():
    cluster = make()
    cluster.preload()
    cluster.warm_caches()
    for rs in cluster.servers:
        expected = sum(s.n_blocks for r in rs.regions.values() for s in r.sstables)
        assert len(rs.cache) == expected
        assert expected > 0


def test_default_cache_fits_whole_dataset_per_server():
    cluster = make()
    total_blocks = sum(
        s.n_blocks
        for rs in cluster.servers
        for r in rs.regions.values()
        for s in r.sstables
    ) or 1
    cluster.preload()
    total_blocks = sum(
        s.n_blocks
        for rs in cluster.servers
        for r in rs.regions.values()
        for s in r.sstables
    )
    for rs in cluster.servers:
        assert rs.cache.capacity >= total_blocks


def test_add_client_wires_tracker_when_recovery_enabled():
    cluster = make()
    handle = cluster.add_client("c1")
    assert handle.agent is not None
    assert handle.txn.tracker is handle.agent
    assert handle.txn.durability == "tm_log"


def test_add_client_without_recovery_uses_store_sync_when_wal_sync():
    config = ClusterConfig(seed=72)
    config.workload.n_rows = 1000
    config.kv.wal_sync_mode = "sync"
    config.recovery.enabled = False
    cluster = SimCluster(config).start()
    handle = cluster.add_client()
    assert handle.agent is None
    assert handle.txn.durability == "store_sync"


def test_same_seed_same_workload_results():
    def run(seed):
        config = ClusterConfig(seed=seed)
        config.workload.n_rows = 3000
        config.workload.n_clients = 6
        cluster = SimCluster(config).start()
        cluster.preload()
        cluster.warm_caches()
        result = WorkloadDriver(cluster).run(duration=5.0, target_tps=60.0)
        return (
            result.committed,
            result.aborted,
            round(result.latency.mean, 12),
            cluster.kernel.event_count,
        )

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_paper_and_small_setups():
    paper = paper_setup()
    assert paper.workload.n_rows == 500_000
    assert paper.workload.n_clients == 50
    assert paper.kv.n_region_servers == 2
    small = small_setup()
    assert small.workload.n_rows < 50_000


def test_restart_recovery_manager_requires_recovery():
    config = ClusterConfig(seed=73)
    config.workload.n_rows = 1000
    config.recovery.enabled = False
    cluster = SimCluster(config).start()
    with pytest.raises(RuntimeError):
        cluster.restart_recovery_manager()


def test_tm_shard_crash_restart_require_sharded_tm():
    # The single TM has no shard restart protocol: refuse at the call
    # instead of half-restarting it in a background process.
    cluster = make(n_rows=1000)
    with pytest.raises(ValueError, match="sharded TM"):
        cluster.crash_tm_shard(0)
    with pytest.raises(ValueError, match="sharded TM"):
        cluster.restart_tm_shard(0)
    assert cluster.tms[0].alive


def _live_process_names(node):
    """Names of the node's live processes, without the ``addr/`` prefix."""
    return [proc.name.split("/", 1)[1] for proc in node._procs]


def test_default_cluster_is_a_one_shard_tm():
    cluster = make(n_rows=1000)
    assert cluster.tms == [cluster.tm]
    assert cluster.tm.addr == "tm"
    assert cluster.tm.shard_addrs == ["tm"]
    # No peer can leave a transaction in doubt on a lone TM.
    assert "indoubt-resolver" not in _live_process_names(cluster.tm)


def test_sharded_tm_runs_an_indoubt_resolver_per_shard():
    config = ClusterConfig(seed=74)
    config.workload.n_rows = 1000
    config.txn.tm_shards = 2
    cluster = SimCluster(config).start()
    assert [tm.addr for tm in cluster.tms] == ["tm0", "tm1"]
    assert cluster.tm is cluster.tms[0]
    for tm in cluster.tms:
        assert tm.shard_addrs == ["tm0", "tm1"]
        assert "indoubt-resolver" in _live_process_names(tm)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("log_shards", 2, "log_shards"),
        ("snapshot_visibility", "flushed", "snapshot_visibility"),
    ],
)
def test_sharded_tm_rejects_incompatible_txn_settings(field, value, match):
    config = ClusterConfig(seed=75)
    config.txn.tm_shards = 2
    setattr(config.txn, field, value)
    with pytest.raises(ValueError, match=match):
        SimCluster(config)


def test_crash_server_kills_colocated_datanode():
    cluster = make()
    cluster.crash_server(0)
    assert not cluster.servers[0].alive
    assert not cluster.datanodes[0].alive
    assert cluster.servers[1].alive
