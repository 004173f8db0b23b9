"""AUQ guard rails that ride along with the DDL subsystem: high-watermark
backpressure (degrade enqueue to synchronous apply) and the
drop/recreate resurrection bugfix (epoch-fenced delivery)."""

import dataclasses

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.cluster.server import ServerConfig
from repro.core.verify import actual_entries


def _gated_backlog(cluster, client, count):
    """Close every APS gate and issue ``count`` async puts, so tasks can
    only pile up (or degrade)."""
    for server in cluster.servers.values():
        server.aps_gate.close()

    def burst():
        for i in range(count):
            yield from client.put("t", f"r{i:04d}".encode(), {"c": b"v"})

    cluster.run(burst())


# ---------------------------------------------------------------------------
# Satellite: high-watermark backpressure
# ---------------------------------------------------------------------------

def test_high_watermark_degrades_enqueue_to_synchronous_apply():
    cluster = MiniCluster(
        num_servers=2, seed=3,
        server_config=ServerConfig(auq_high_watermark=5)).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.ASYNC_SIMPLE))
    client = cluster.new_client()
    _gated_backlog(cluster, client, 40)

    # Once a queue reaches the watermark, further tasks apply inline
    # instead of enqueueing — the backlog stays bounded.
    degraded = cluster.metrics.total("auq_degraded_total")
    assert degraded > 0
    assert cluster.auq_backlog() <= 2 * (5 + 1)   # per-server watermark
    assert degraded + cluster.auq_backlog() >= 40

    # Degraded tasks were APPLIED, not dropped: after reopening the gates
    # and draining, the index is complete.
    for server in cluster.servers.values():
        server.aps_gate.open()
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (report.missing, report.stale)
    assert len(actual_entries(cluster, cluster.index_descriptor("ix"))) == 40


def test_watermark_none_restores_unbounded_backlog():
    """Regression guard for the Figure 11 regime: with the watermark
    disabled the AUQ must grow without bound (staleness-vs-rate depends
    on it), and nothing ever degrades to synchronous apply."""
    cluster = MiniCluster(
        num_servers=2, seed=3,
        server_config=ServerConfig(auq_high_watermark=None)).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.ASYNC_SIMPLE))
    client = cluster.new_client()
    _gated_backlog(cluster, client, 60)

    assert cluster.metrics.total("auq_degraded_total") == 0
    assert cluster.auq_backlog() == 60

    for server in cluster.servers.values():
        server.aps_gate.open()
    cluster.quiesce()
    assert check_index(cluster, "ix").is_consistent


def test_bench_experiments_keep_auq_unbounded_by_default():
    """The production default watermark must NOT leak into the paper's
    experiment harness (it would clip Figure 11's staleness curve)."""
    from repro.bench.harness import ExperimentConfig

    config = ExperimentConfig()
    assert config.auq_high_watermark is None
    default = ServerConfig()
    assert default.auq_high_watermark is not None  # but production keeps it


# ---------------------------------------------------------------------------
# Satellite bugfix: drop_index must cancel pending AUQ deliveries
# ---------------------------------------------------------------------------

def test_dropped_index_pending_tasks_cannot_resurrect_recreated_index():
    cluster = MiniCluster(num_servers=2, seed=13).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.ASYNC_SIMPLE))
    client = cluster.new_client()
    # Hold 20 maintenance tasks captive in the AUQs...
    _gated_backlog(cluster, client, 20)
    assert cluster.auq_backlog() == 20

    # ...drop the index, then recreate it SAME-NAMED and empty.
    cluster.drop_index("ix")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.ASYNC_SIMPLE),
                         backfill=False)
    recreated = cluster.index_descriptor("ix")

    # Release the captive tasks.  Their planned ops carry the OLD index's
    # epoch, so delivery filters every one of them — the recreated index
    # must stay empty (before the epoch fence, all 20 pre-drop entries
    # reappeared here).
    for server in cluster.servers.values():
        server.aps_gate.open()
    cluster.quiesce()
    assert actual_entries(cluster, recreated) == {}

    # The fence is per-epoch, not per-name: fresh writes still maintain
    # the recreated index normally.
    cluster.run(client.put("t", b"zz", {"c": b"fresh"}))
    cluster.quiesce()
    # Exactly the fresh write's entry — nothing from the doomed batch
    # (check_index is inapplicable here: the recreate deliberately skipped
    # backfill, so the 20 old base rows have no entries by construction).
    from repro.core.index import row_index_key
    assert list(actual_entries(cluster, recreated)) \
        == [row_index_key(recreated, (b"fresh",), b"zz")]


def test_drop_while_tasks_inflight_does_not_spin_retries_forever():
    """An op whose index table vanished must be abandoned at delivery,
    not retried forever against a missing table."""
    cluster = MiniCluster(num_servers=2, seed=27).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.ASYNC_SIMPLE))
    client = cluster.new_client()
    _gated_backlog(cluster, client, 10)
    cluster.drop_index("ix")
    for server in cluster.servers.values():
        server.aps_gate.open()
    # Converges: the queues drain instead of looping on a dead table.
    cluster.quiesce()
    assert cluster.auq_backlog() == 0


def test_per_server_config_isolation_for_watermark():
    """Watermark tuning on one server must not leak to its peers (configs
    are copied per server)."""
    cluster = MiniCluster(
        num_servers=2, seed=1,
        server_config=ServerConfig(auq_high_watermark=100)).start()
    s1, s2 = cluster.servers.values()
    s1.config = dataclasses.replace(s1.config, auq_high_watermark=None)
    assert s2.config.auq_high_watermark == 100


def test_overflow_apply_with_one_handler_does_not_deadlock():
    """Regression guard for the overflow apply's handler pool.  With one
    handler per server and a zero watermark, every async write applies
    its index ops inline while it still holds that server's only regular
    handler; those ops must land on the index-handler pool, or concurrent
    writes on two servers wait on each other forever."""
    cluster = MiniCluster(
        num_servers=2, seed=3,
        server_config=ServerConfig(num_handlers=1,
                                   auq_high_watermark=0)).start()
    cluster.create_table("t", split_keys=[b"r3"])   # rows on both servers
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.ASYNC_SIMPLE))
    client = cluster.new_client()
    for value in (b"old", b"new"):            # inserts, then updates
        writes = [cluster.sim.spawn(
            client.put("t", f"r{i}".encode(), {"c": value}), name=f"w{i}")
            for i in range(6)]
        cluster.advance(1000.0)
        assert all(w.future.done() for w in writes), "writes deadlocked"
    cluster.quiesce()
    assert cluster.metrics.total("auq_degraded_total") == 12
    report = check_index(cluster, "ix")
    assert report.is_consistent, (report.missing, report.stale)
