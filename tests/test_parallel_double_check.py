"""The parallel sync-insert double-check (Algorithm 2 over multiget) must
be observably identical to the sequential reference: same counters, same
per-row charges, same repairs, same final index state."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.core.reader import (_decode_hits, _double_check_sequential,
                               index_scan_range)


def build(seed=11):
    cluster = MiniCluster(num_servers=3, seed=seed).start()
    cluster.create_table("t", split_keys=[b"r3", b"r6"])
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_INSERT))
    return cluster, cluster.new_client()


def read(cluster, client, parallel, **predicate):
    """getByIndex on ``ix``: the client's read path when ``parallel``,
    else the same index scan followed by the sequential reference
    double-check."""
    if parallel:
        return cluster.run(client.get_by_index("ix", **predicate))
    index = cluster.index_descriptor("ix")

    def sequential():
        cells = yield from client.scan_table(
            index.table_name, index_scan_range(index, **predicate),
            is_index=True)
        hits = yield from _double_check_sequential(
            client, index, _decode_hits(index, cells))
        return hits

    return cluster.run(sequential())


def seeded_workload(cluster, client):
    """9 rows sharing value v across 3 regions; 5 of them then move to w,
    leaving 5 stale v-entries for the double-check to refute."""
    for i in range(9):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"v"}))
    for i in range(0, 9, 2):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"w"}))


def repair_counters(cluster):
    metrics = cluster.metrics
    return (metrics.counter("read_repair_checks", index="ix").value,
            metrics.counter("read_repair_repairs", index="ix").value)


@pytest.mark.parametrize("value, expected_rows", [
    (b"v", [b"r1", b"r3", b"r5", b"r7"]),
    (b"w", [b"r0", b"r2", b"r4", b"r6", b"r8"]),
])
def test_parallel_matches_sequential_everything(value, expected_rows):
    observations = {}
    for mode in (True, False):
        cluster, client = build()
        seeded_workload(cluster, client)
        before = cluster.counters.snapshot()
        hits = read(cluster, client, mode, equals=[value])
        diff = cluster.counters.since(before)
        report = check_index(cluster, "ix")
        observations[mode] = {
            "rows": sorted(h.rowkey for h in hits),
            "counters": repair_counters(cluster),
            "base_read": diff.base_read,
            "index_read": diff.index_read,
            "index_delete": diff.index_delete,
            "stale_after": sorted(report.stale),
        }
    assert observations[True] == observations[False]
    assert observations[True]["rows"] == expected_rows


def test_parallel_read_pays_k_base_reads_across_regions():
    """Table 2 parity on a multi-region table: K candidates cost exactly K
    base reads and 1 index read even when they travel as ~3 multigets."""
    cluster, client = build()
    for i in range(9):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"v"}))
    before = cluster.counters.snapshot()
    hits = cluster.run(client.get_by_index("ix", equals=[b"v"]))
    diff = cluster.counters.since(before)
    assert len(hits) == 9
    assert diff.base_read == 9
    assert diff.index_read == 1


def test_duplicate_rowkey_range_query_charges_match():
    """A range query can return several (stale) entries for ONE row; the
    multiget must keep the duplicates so every entry is charged its own
    base read, exactly like the sequential loop."""
    observations = {}
    for mode in (True, False):
        cluster, client = build()
        cluster.run(client.put("t", b"r1", {"c": b"a"}))
        cluster.run(client.put("t", b"r1", {"c": b"b"}))
        cluster.run(client.put("t", b"r1", {"c": b"c"}))
        before = cluster.counters.snapshot()
        hits = read(cluster, client, mode, low=b"a", high=b"c")
        diff = cluster.counters.since(before)
        observations[mode] = {
            "rows": [(h.rowkey, h.values) for h in hits],
            "counters": repair_counters(cluster),
            "base_read": diff.base_read,
        }
    assert observations[True] == observations[False]
    # Three entries (a and b stale, c live) → 3 checks, 3 base reads,
    # 2 repairs, one confirmed hit.
    assert observations[True]["base_read"] == 3
    assert observations[True]["counters"] == (3, 2)
    assert observations[True]["rows"] == [(b"r1", (b"c",))]


def test_repair_converges_to_consistent_index_in_both_modes():
    for mode in (True, False):
        cluster, client = build()
        seeded_workload(cluster, client)
        assert len(check_index(cluster, "ix").stale) == 5
        read(cluster, client, mode, equals=[b"v"])
        assert check_index(cluster, "ix").is_consistent
