"""Property test: a bounded region-server scan equals a full-range merge.

``RegionServer.rpc_scan`` stops each sstable's block walk after that
store's first ``limit + 1`` visible rows.  Here a region is spread over the
active memstore, a flush snapshot and three sstables, and every scan must
return exactly what merging every store over the whole range would.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.keys import Cell
from repro.kvstore.region import ONLINE, Region, RegionDescriptor
from repro.kvstore.regionserver import RegionServer, _block_to_map
from repro.kvstore.sstable import SSTable, build_blocks
from repro.sim import Kernel, Network

ROWS = [f"r{i:02d}" for i in range(16)]
#: Store 0 is the active memstore, 1 the flush snapshot, 2.. sstables.
N_STORES = 5


@st.composite
def entries_st(draw):
    """(row, column, version) -> (store, value); None values are tombstones.

    Keying by version keeps each version in exactly one store.  Entries
    land in a random subset of the stores, so a lone sstable is as likely
    as a region where the memstore covers every row.
    """
    stores = draw(st.lists(st.integers(0, N_STORES - 1), min_size=1, unique=True))
    return draw(st.dictionaries(
        st.tuples(st.sampled_from(ROWS), st.sampled_from(("a", "b")), st.integers(1, 20)),
        st.tuples(st.sampled_from(stores), st.one_of(st.none(), st.integers(0, 99))),
        max_size=60,
    ))


bounds_st = st.sampled_from(["", "r00", "r03", "r05x", "r08", "r11", "r15", "s"])
limit_st = st.one_of(st.just(1), st.integers(2, 6), st.just(len(ROWS) + 5))


def build_server(entries, rows_per_block):
    """One region holding ``entries``, every sstable block already cached."""
    kernel = Kernel(seed=1)
    rs = RegionServer(kernel, Network(kernel), "rs0")
    region = Region(RegionDescriptor(table="t", start="", end=None), state=ONLINE)
    by_store = [[] for _ in range(N_STORES)]
    for (row, column, version), (store, value) in sorted(entries.items()):
        by_store[store].append(Cell(row, column, version, value, value is None))
    for cell in by_store[1]:
        region.memstore.put(cell)
    region.memstore.snapshot_for_flush()
    for cell in by_store[0]:
        region.memstore.put(cell)
    for store in range(2, N_STORES):
        path = f"/data/t/sst-{store}"
        index, blocks = build_blocks(by_store[store], rows_per_block)
        for block_idx, block in enumerate(blocks):
            rs.cache.put((path, block_idx), _block_to_map(block))
        region.sstables.append(SSTable(path, index, len(by_store[store])))
    rs.regions[region.region_id] = region
    return kernel, rs, region.region_id


def full_merge(entries, start, end, max_version, limit):
    """Oracle: newest visible version per cell over the whole range."""
    best = {}
    for (row, column, version), (_store, value) in entries.items():
        if row < start or (end is not None and row >= end) or version > max_version:
            continue
        if (row, column) not in best or version > best[(row, column)][0]:
            best[(row, column)] = (version, value)
    rows = sorted({row for row, _column in best})
    keep = set(rows[:limit])
    cells = [
        (row, column, version, value)
        for (row, column), (version, value) in sorted(best.items())
        if row in keep and value is not None
    ]
    return {
        "cells": cells,
        "more": len(rows) > limit,
        "last_row": rows[:limit][-1] if rows else None,
    }


@given(
    entries_st(),
    st.integers(1, 4),
    bounds_st,
    st.one_of(st.none(), bounds_st),
    st.integers(0, 21),
    limit_st,
)
@settings(max_examples=300, deadline=None)
def test_bounded_scan_matches_full_merge(
    entries, rows_per_block, start, end, max_version, limit
):
    kernel, rs, region_id = build_server(entries, rows_per_block)
    got = kernel.run_until_complete(
        kernel.process(rs.rpc_scan("c", region_id, start, end, max_version, limit))
    )
    assert got == full_merge(entries, start, end, max_version, limit)
