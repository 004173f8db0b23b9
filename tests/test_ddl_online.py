"""Online index DDL (repro.ddl): the crash-safe CREATE/ALTER/DROP state
machine, concurrent-write backfill, resume after crashes, and the
offline/online equivalence guarantee."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.core.encoding import index_prefix
from repro.core.verify import actual_entries
from repro.ddl.jobs import JobPhase
from repro.ddl.manager import DdlConfig, DdlManager
from repro.errors import IndexBuildingError, NoSuchIndexError
from repro.query.planner import plan_query
from repro.query.predicates import Eq
from repro.sim.kernel import Timeout


def _load(cluster, client, table, count, prefix="r", value=b"v"):
    def loader():
        for i in range(count):
            yield from client.put(table, f"{prefix}{i:05d}".encode(),
                                  {"c": value})
    cluster.run(loader())


# ---------------------------------------------------------------------------
# CREATE: the full state machine, with concurrent writes
# ---------------------------------------------------------------------------

def test_online_create_runs_full_state_machine_under_writes():
    cluster = MiniCluster(num_servers=3, seed=17).start()
    cluster.ddl.config = DdlConfig(chunk_cells=64)
    cluster.create_table("t", split_keys=[b"r00300"])
    client = cluster.new_client()
    _load(cluster, client, "t", 600)

    cluster.create_index(IndexDescriptor("ix", "t", ("c",)),
                         backfill="online")
    job = next(iter(cluster.ddl.jobs.values()))

    seen = []

    def watcher():
        while not job.is_terminal:
            if not seen or seen[-1] is not job.phase:
                seen.append(job.phase)
            yield Timeout(0.5)
        seen.append(job.phase)

    def writer():
        for i in range(200):
            yield from client.put("t", f"w{i:04d}".encode(), {"c": b"live"})

    cluster.spawn(watcher(), name="watcher")
    writer_proc = cluster.spawn(writer(), name="writer")
    cluster.run(job.wait())
    cluster.sim.run_until_complete(writer_proc)

    assert job.phase is JobPhase.ACTIVE
    # Happy-path phases appear in machine order (PENDING may be gone
    # before the watcher's first sample).
    order = [JobPhase.PENDING, JobPhase.DUAL_WRITE, JobPhase.BACKFILL,
             JobPhase.CATCH_UP, JobPhase.VERIFY, JobPhase.ACTIVE]
    ranks = [order.index(p) for p in seen]
    assert ranks == sorted(ranks)
    assert JobPhase.BACKFILL in seen and JobPhase.ACTIVE in seen

    assert job.rows_scanned >= 600          # every preexisting row covered
    assert job.entries_written >= 600
    assert cluster.metrics.total("ddl_backfill_rows_total") >= 600

    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (report.missing, report.stale)
    # Concurrent writes were dual-written, not lost.
    entries = actual_entries(cluster, cluster.index_descriptor("ix"))
    assert len(entries) == 800

    # Terminal state is durable: a fresh catalog read agrees.
    assert cluster.ddl.catalog.load(job.job_id).phase is JobPhase.ACTIVE


def test_building_index_rejects_reads_and_planner_skips_it():
    cluster = MiniCluster(num_servers=2, seed=23).start()
    cluster.ddl.config = DdlConfig(chunk_cells=16, chunk_pause_ms=50.0)
    cluster.create_table("t")
    client = cluster.new_client()
    _load(cluster, client, "t", 300)

    cluster.create_index(IndexDescriptor("ix", "t", ("c",)),
                         backfill="online")
    job = next(iter(cluster.ddl.jobs.values()))

    def probe():
        while job.phase is not JobPhase.BACKFILL:
            yield Timeout(0.5)

    cluster.run(probe())
    assert not cluster.index_descriptor("ix").is_readable
    with pytest.raises(IndexBuildingError):
        cluster.run(client.get_by_index("ix", equals=[b"v"]))
    # The planner falls back to a scan rather than using a half-built index.
    assert plan_query(cluster, "t", Eq("c", b"v")).access_path == "scan"

    cluster.run(job.wait())
    assert cluster.index_descriptor("ix").is_readable
    hits = cluster.run(client.get_by_index("ix", equals=[b"v"]))
    assert len(hits) == 300
    assert plan_query(cluster, "t", Eq("c", b"v")).access_path == "index"


# ---------------------------------------------------------------------------
# Satellite: legacy path + offline/online equivalence
# ---------------------------------------------------------------------------

def test_offline_backfill_modes_still_work():
    cluster = MiniCluster(num_servers=2, seed=5).start()
    cluster.create_table("t")
    client = cluster.new_client()
    _load(cluster, client, "t", 50)
    # Legacy spellings: "offline" and the old boolean.
    cluster.create_index(IndexDescriptor("a", "t", ("c",)),
                         backfill="offline")
    cluster.create_index(IndexDescriptor("b", "t", ("c",)), backfill=True)
    assert check_index(cluster, "a").is_consistent
    assert check_index(cluster, "b").is_consistent
    with pytest.raises(ValueError):
        cluster.create_index(IndexDescriptor("x", "t", ("c",)),
                             backfill="nonsense")


def test_offline_and_online_builds_are_equivalent_after_quiesce():
    def build(mode):
        cluster = MiniCluster(num_servers=2, seed=31).start()
        cluster.create_table("t")
        client = cluster.new_client()
        _load(cluster, client, "t", 250)
        cluster.create_index(IndexDescriptor("ix", "t", ("c",)),
                             backfill=mode)
        if mode == "online":
            job = next(iter(cluster.ddl.jobs.values()))
            cluster.run(job.wait())
        cluster.quiesce()
        return actual_entries(cluster, cluster.index_descriptor("ix"))

    offline = build("offline")
    online = build("online")
    # Same keys AND same (base) timestamps: the online build is
    # indistinguishable from the instantaneous legacy build once quiesced.
    assert offline == online


def test_local_index_rejects_online_build():
    from repro.core.index import IndexScope
    cluster = MiniCluster(num_servers=2, seed=5).start()
    cluster.create_table("t")
    with pytest.raises(ValueError):
        cluster.create_index(
            IndexDescriptor("loc", "t", ("c",), scope=IndexScope.LOCAL),
            backfill="online")


# ---------------------------------------------------------------------------
# Satellite: property test — all four schemes, concurrent writes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("scheme", [IndexScheme.SYNC_FULL,
                                    IndexScheme.SYNC_INSERT,
                                    IndexScheme.ASYNC_SIMPLE,
                                    IndexScheme.ASYNC_SESSION])
def test_online_backfill_with_concurrent_writes_all_schemes(scheme):
    cluster = MiniCluster(num_servers=3, seed=41).start()
    cluster.ddl.config = DdlConfig(chunk_cells=32)
    cluster.create_table("t", split_keys=[b"m"])
    client = cluster.new_client()
    _load(cluster, client, "t", 300, prefix="a")
    _load(cluster, client, "t", 300, prefix="z")

    cluster.create_index(IndexDescriptor("ix", "t", ("c",), scheme=scheme),
                         backfill="online")
    job = next(iter(cluster.ddl.jobs.values()))

    def writer():
        # Fresh-row inserts only: sync-insert leaves stale entries behind
        # on updates BY DESIGN (read-repaired lazily), which check_index
        # would flag — that is scheme behaviour, not a backfill bug.
        for i in range(150):
            yield from client.put("t", f"n{i:04d}".encode(), {"c": b"w"})

    writer_proc = cluster.spawn(writer(), name="writer")
    cluster.run(job.wait())
    assert job.phase is JobPhase.ACTIVE
    cluster.sim.run_until_complete(writer_proc)
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (scheme, report.missing, report.stale)
    assert len(actual_entries(cluster, cluster.index_descriptor("ix"))) \
        == 750


# ---------------------------------------------------------------------------
# Crash safety
# ---------------------------------------------------------------------------

def test_kill_server_during_backfill_still_completes_cleanly():
    cluster = MiniCluster(num_servers=3, seed=11).start()
    cluster.ddl.config = DdlConfig(chunk_cells=32, chunk_pause_ms=10.0)
    cluster.create_table("t", split_keys=[b"g", b"p"])
    client = cluster.new_client()
    _load(cluster, client, "t", 300, prefix="a")
    _load(cluster, client, "t", 300, prefix="h")

    cluster.create_index(IndexDescriptor("ix", "t", ("c",)),
                         backfill="online")
    job = next(iter(cluster.ddl.jobs.values()))

    def killer():
        while job.phase is not JobPhase.BACKFILL:
            yield Timeout(1.0)
        yield Timeout(15.0)
        victim = next(s.name for s in cluster.alive_servers() if s.regions)
        cluster.kill_server(victim)

    cluster.spawn(killer(), name="killer")
    cluster.run(job.wait())
    assert job.phase is JobPhase.ACTIVE
    assert job.error is None
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (report.missing, report.stale)


def test_backfill_group_split_across_servers_by_recovery_converges():
    """Index regions r0002 and r0005 share rs2, so a backfill chunk's ops
    bound there form one delivery group; rs2 dies mid-backfill and
    recovery puts the two regions on different servers.  The delivery
    retry must re-route every op of the failed group — re-sending it
    whole to its first op's new owner is rejected there forever and pins
    the job in BACKFILL."""
    cluster = MiniCluster(num_servers=3, seed=5).start()
    cluster.create_table("t")
    client = cluster.new_client()
    values = [b"a", b"h", b"p", b"w"]

    def loader():
        for i in range(400):
            yield from client.put("t", f"r{i:05d}".encode(),
                                  {"c": values[i % 4]})

    cluster.run(loader())
    job = cluster.create_index_online(
        IndexDescriptor("ix", "t", ("c",), scheme=IndexScheme.SYNC_FULL),
        split_keys=[index_prefix([v]) for v in (b"f", b"m", b"t")])
    ix = cluster.index_descriptor("ix").table_name
    on_rs2 = [i.region_name for i in cluster.master.layout[ix]
              if i.server_name == "rs2"]
    assert on_rs2 == [f"{ix},r0002", f"{ix},r0005"]
    cluster.advance(3.0)
    cluster.kill_server("rs2")

    def bounded_wait():
        deadline = cluster.sim.now() + 120_000.0
        while not job.is_terminal and cluster.sim.now() < deadline:
            yield Timeout(5.0)

    cluster.run(bounded_wait())
    assert len({i.server_name for i in cluster.master.layout[ix]
                if i.region_name in on_rs2}) == 2
    assert job.phase is JobPhase.ACTIVE
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (report.missing, report.stale)


def test_manager_restart_resumes_from_persisted_cursors():
    cluster = MiniCluster(num_servers=2, seed=9).start()
    cluster.ddl.config = DdlConfig(chunk_cells=16)
    cluster.create_table("t")
    client = cluster.new_client()
    _load(cluster, client, "t", 400, prefix="k")

    cluster.create_index(IndexDescriptor("ix", "t", ("c",)),
                         backfill="online")
    stale_job = next(iter(cluster.ddl.jobs.values()))

    def until_mid_backfill():
        while (stale_job.phase is not JobPhase.BACKFILL
               or stale_job.chunks_done < 3):
            yield Timeout(1.0)

    cluster.run(until_mid_backfill())

    # "Master restart": a brand-new manager over the same durable catalog.
    cluster.ddl = DdlManager(cluster, config=DdlConfig(chunk_cells=16))
    resumed = cluster.ddl.resume_pending()
    assert [j.job_id for j in resumed] == [stale_job.job_id]
    job = resumed[0]
    assert job.phase is JobPhase.BACKFILL       # picked up mid-flight
    assert job.cursors                          # with persisted progress
    assert job.owner_token == stale_job.owner_token + 1

    cluster.run(job.wait())
    assert job.phase is JobPhase.ACTIVE
    cluster.advance(1000)
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (report.missing, report.stale)
    # The superseded runner hit the durable fence and stopped short of a
    # terminal phase — it never raced the new owner to completion.
    assert stale_job.phase is not JobPhase.ACTIVE
    assert cluster.ddl.catalog.load(job.job_id).owner_token \
        == job.owner_token


# ---------------------------------------------------------------------------
# ALTER ... SCHEME as an online scrub job; online DROP
# ---------------------------------------------------------------------------

def test_online_alter_scrubs_stale_entries_in_chunks():
    cluster = MiniCluster(num_servers=2, seed=5).start()
    cluster.ddl.config = DdlConfig(chunk_cells=64)
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_INSERT))
    client = cluster.new_client()
    _load(cluster, client, "t", 150, value=b"old")
    _load(cluster, client, "t", 150, value=b"new")   # updates -> stale entries
    assert not check_index(cluster, "ix").is_consistent  # lazy by design

    job = cluster.change_index_scheme("ix", IndexScheme.SYNC_FULL,
                                      online=True)
    assert job.scrub
    cluster.run(job.wait())
    assert job.phase is JobPhase.ACTIVE
    assert job.stale_deleted == 150
    assert cluster.metrics.total("ddl_scrub_deleted_total") == 150
    index = cluster.index_descriptor("ix")
    assert index.scheme is IndexScheme.SYNC_FULL
    assert not index.needs_read_repair
    cluster.quiesce()
    report = check_index(cluster, "ix")
    assert report.is_consistent, (report.missing, report.stale)


def test_reads_stay_correct_during_alter_transition():
    cluster = MiniCluster(num_servers=2, seed=29).start()
    cluster.ddl.config = DdlConfig(chunk_cells=8, chunk_pause_ms=40.0)
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_INSERT))
    client = cluster.new_client()
    _load(cluster, client, "t", 120, value=b"old")
    _load(cluster, client, "t", 120, value=b"new")

    job = cluster.change_index_scheme("ix", IndexScheme.SYNC_FULL,
                                      online=True)

    def mid_scrub():
        while job.phase is not JobPhase.BACKFILL or job.chunks_done < 1:
            yield Timeout(0.5)

    cluster.run(mid_scrub())
    index = cluster.index_descriptor("ix")
    assert index.needs_read_repair          # TRANSITION keeps Algorithm 2
    # Mid-scrub, a query for the OLD value must return nothing: stale
    # entries still physically present are filtered by the double-check.
    hits = cluster.run(client.get_by_index("ix", equals=[b"old"]))
    assert hits == []
    hits = cluster.run(client.get_by_index("ix", equals=[b"new"]))
    assert len(hits) == 120

    cluster.run(job.wait())
    assert job.phase is JobPhase.ACTIVE


def test_alter_without_scrub_skips_backfill():
    cluster = MiniCluster(num_servers=2, seed=3).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_FULL))
    client = cluster.new_client()
    _load(cluster, client, "t", 40)
    job = cluster.change_index_scheme("ix", IndexScheme.ASYNC_SIMPLE,
                                      online=True)
    assert not job.scrub                   # sync-full leaves nothing stale
    cluster.run(job.wait())
    assert job.phase is JobPhase.ACTIVE
    assert job.chunks_done == 0
    assert cluster.index_descriptor("ix").scheme is IndexScheme.ASYNC_SIMPLE


def test_online_drop_persists_intent_then_drops():
    cluster = MiniCluster(num_servers=2, seed=7).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",)))
    client = cluster.new_client()
    _load(cluster, client, "t", 30)

    job = cluster.drop_index("ix", online=True)
    cluster.run(job.wait())
    assert job.phase is JobPhase.DONE
    with pytest.raises(NoSuchIndexError):
        cluster.index_descriptor("ix")
    # The DROPPING intent reached the catalog before the drop acted, and
    # the terminal record survives for post-mortems.
    assert cluster.ddl.catalog.load(job.job_id).phase is JobPhase.DONE


# ---------------------------------------------------------------------------
# Adaptive controller actuates through the online job
# ---------------------------------------------------------------------------

def test_adaptive_controller_online_actuation_returns_job():
    from repro.core.adaptive import AdaptiveController
    from repro.core.schemes import ConsistencyLevel

    cluster = MiniCluster(num_servers=2, seed=19).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.SYNC_FULL))
    client = cluster.new_client()
    _load(cluster, client, "t", 60)

    controller = AdaptiveController(
        cluster, "ix", ConsistencyLevel.EVENTUAL, online_actuation=True)
    for _ in range(200):
        controller.observe_update()
    decision = controller.evaluate()
    assert decision.acted and decision.recommended is IndexScheme.ASYNC_SIMPLE
    assert len(controller.jobs) == 1
    job = controller.jobs[0]
    cluster.run(job.wait())
    assert job.phase is JobPhase.ACTIVE
    assert cluster.index_descriptor("ix").scheme is IndexScheme.ASYNC_SIMPLE
