"""Tests for range scans, compaction, and WAL rolling."""

import math

import pytest

from repro import ClusterConfig, SimCluster, TABLE
from repro.config import KvSettings
from repro.kvstore.keys import row_key
from tests.kvstore.conftest import MiniCluster


@pytest.fixture(scope="module")
def scan_cluster():
    config = ClusterConfig(seed=81)
    config.workload.n_rows = 500
    config.kv.n_regions = 4
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    return cluster, cluster.add_client("scanner")


class TestScan:
    def test_scan_within_one_region(self, scan_cluster):
        cluster, handle = scan_cluster

        def scan():
            ctx = yield from handle.txn.begin()
            return (yield from handle.txn.scan(ctx, TABLE, row_key(10), row_key(15)))

        rows = cluster.run(scan())
        assert [r for r, _v in rows] == [row_key(i) for i in range(10, 15)]
        assert all(v == f"init-{int(r[4:])}" for r, v in rows)

    def test_scan_spans_regions(self, scan_cluster):
        cluster, handle = scan_cluster

        def scan():
            ctx = yield from handle.txn.begin()
            return (yield from handle.txn.scan(ctx, TABLE, row_key(100), row_key(300)))

        rows = cluster.run(scan())
        assert len(rows) == 200
        assert rows[0][0] == row_key(100)
        assert rows[-1][0] == row_key(299)

    def test_scan_sees_committed_updates_at_snapshot(self, scan_cluster):
        cluster, handle = scan_cluster

        def update():
            ctx = yield from handle.txn.begin()
            handle.txn.write(ctx, TABLE, row_key(20), "updated-20")
            yield from handle.txn.commit(ctx, wait_flush=True)
            return ctx

        ctx = cluster.run(update())

        def scan_after():
            c2 = yield from handle.txn.begin()
            return (yield from handle.txn.scan(c2, TABLE, row_key(20), row_key(21)))

        assert cluster.run(scan_after()) == [(row_key(20), "updated-20")]

    def test_scan_overlays_own_writes_and_deletes(self, scan_cluster):
        cluster, handle = scan_cluster

        def txn():
            ctx = yield from handle.txn.begin()
            handle.txn.write(ctx, TABLE, row_key(30), "mine-30")
            handle.txn.delete(ctx, TABLE, row_key(31))
            rows = yield from handle.txn.scan(ctx, TABLE, row_key(30), row_key(33))
            yield from handle.txn.abort(ctx)
            return rows

        rows = cluster.run(txn())
        assert (row_key(30), "mine-30") in rows
        assert all(r != row_key(31) for r, _v in rows)
        assert (row_key(32), "init-32") in rows

    def test_scan_limit(self, scan_cluster):
        cluster, handle = scan_cluster

        def scan():
            ctx = yield from handle.txn.begin()
            return (yield from handle.txn.scan(ctx, TABLE, row_key(0), None, limit=7))

        rows = cluster.run(scan())
        assert len(rows) == 7

    def test_scan_open_ended(self, scan_cluster):
        cluster, handle = scan_cluster

        def scan():
            ctx = yield from handle.txn.begin()
            return (yield from handle.txn.scan(ctx, TABLE, row_key(495), None))

        rows = cluster.run(scan())
        assert [r for r, _v in rows] == [row_key(i) for i in range(495, 500)]

    def test_scan_resumes_past_a_page_of_deleted_rows(self, scan_cluster):
        # With limit=3 the server's second page holds only the deleted
        # rows 43-44; the client must resume after them, not jump to the
        # region end and skip rows 45-124.
        cluster, handle = scan_cluster

        def delete():
            ctx = yield from handle.txn.begin()
            for i in range(41, 45):
                handle.txn.delete(ctx, TABLE, row_key(i))
            yield from handle.txn.commit(ctx, wait_flush=True)

        cluster.run(delete())

        def scan():
            ctx = yield from handle.txn.begin()
            return (yield from handle.txn.scan(ctx, TABLE, row_key(40), None, limit=3))

        rows = cluster.run(scan())
        assert [r for r, _v in rows] == [row_key(40), row_key(45), row_key(46)]


class TestScanBlockBound:
    ROWS_PER_BLOCK = 8

    @pytest.fixture(scope="class")
    def small_block_cluster(self):
        config = ClusterConfig(seed=81)
        config.workload.n_rows = 500
        config.kv.n_regions = 4
        config.kv.rows_per_block = self.ROWS_PER_BLOCK
        cluster = SimCluster(config).start()
        cluster.preload()
        cluster.warm_caches()
        return cluster

    @pytest.mark.parametrize("k", [1, 7, 8, 9, 20])
    def test_limit_k_scan_reads_few_blocks(self, small_block_cluster, k):
        """A limit-k scan reads at most ceil((k + 1) / rows_per_block) + 1
        blocks per sstable, not every block to the region end."""
        cluster = small_block_cluster
        bound = math.ceil((k + 1) / self.ROWS_PER_BLOCK) + 1
        for rs in cluster.servers:
            for region in list(rs.regions.values()):
                n_sstables = len(region.sstables)
                assert n_sstables and region.sstables[0].n_blocks > bound
                for start in (region.descriptor.start, region.sstables[0].index[1] + "0"):
                    before = rs.cache.hits + rs.cache.misses
                    reply = cluster.run(
                        rs.rpc_scan("t", region.region_id, start, None, 1, limit=k)
                    )
                    lookups = rs.cache.hits + rs.cache.misses - before
                    assert len(reply["cells"]) == k and reply["more"]
                    assert lookups <= bound * n_sstables


class TestCompaction:
    def test_many_flushes_trigger_compaction(self):
        mini = MiniCluster(
            kv_settings=KvSettings(memstore_flush_entries=20, compaction_threshold=3)
        )
        ts = 0
        for batch in range(8):
            for n in range(25):
                ts += 1
                mini.put(ts, [f"row{ts:05d}"])
            mini.kernel.run(until=mini.kernel.now + 1.0)  # let flusher work
        mini.kernel.run(until=mini.kernel.now + 5.0)
        compactions = sum(rs.metrics()["counters"]["compactions"] for rs in mini.servers)
        assert compactions >= 1
        # Every written value still readable after merges + file deletion.
        for probe in (1, 50, 120, ts):
            assert mini.get(f"row{probe:05d}", ts + 1) == (
                probe, f"v-row{probe:05d}-{probe}"
            )
        # Store-file count per region is bounded again.
        for rs in mini.servers:
            for region in rs.regions.values():
                assert len(region.sstables) <= 4


class TestWalRolling:
    def test_wal_rolls_and_recovery_replays_across_segments(self):
        mini = MiniCluster(
            kv_settings=KvSettings(memstore_flush_entries=100_000)
        )
        for rs in mini.servers:
            rs.wal.roll_records = 5  # force frequent rolls
        for ts in range(1, 41):
            mini.put(ts, [f"k{ts:03d}"])
        mini.kernel.run(until=mini.kernel.now + 2.0)
        assert any(rs.wal.rolls > 0 for rs in mini.servers)
        mini.crash_machine(0)
        mini.kernel.run(until=mini.kernel.now + 10.0)
        # All synced updates recovered, regardless of which segment they
        # landed in.
        for ts in range(1, 41):
            assert mini.get(f"k{ts:03d}", 100) == (ts, f"v-k{ts:03d}-{ts}")
