"""APS retry behaviour (§6.2): exponential backoff between redelivery
attempts, capped, retried-until-success after injected RPC failures, and
re-routed when a failed group's regions end up on different servers."""

import pytest

from repro import IndexDescriptor, IndexScheme, MiniCluster, check_index
from repro.core.auq import (APS_RETRY_BACKOFF_CAP_MS, APS_RETRY_BACKOFF_MS,
                            IndexTask, _process_batch)
from repro.core.encoding import index_prefix
from repro.errors import RpcError
from repro.obs import MetricsRegistry, Tracer
from repro.sim.kernel import Simulator


# ---------------------------------------------------------------------------
# Unit: the backoff schedule, measured on the sim clock
# ---------------------------------------------------------------------------

class _StalenessStub:
    def __init__(self):
        self.records = []

    def record(self, base_ts, completed_at):
        self.records.append((base_ts, completed_at))


class _ClusterStub:
    """Routes every index op to ``server`` — the APS's own server, so each
    delivery is a local ``handle_index_ops`` call."""

    def __init__(self, sim, registry):
        self.sim = sim
        self.metrics = registry
        self.tracer = Tracer(clock=sim.now, registry=registry)
        self.server = None

    def locate(self, table, key):
        return self.server, "r1"


class _ServerStub:
    """An APS server whose ``handle_index_ops`` fails the first
    ``failures`` deliveries, stamping each attempt's sim time."""

    def __init__(self, sim, cluster, registry, failures):
        self.name = "rs1"
        self.sim = sim
        self.alive = True
        self.cluster = cluster
        cluster.server = self
        self.staleness = _StalenessStub()
        self.aps_retries = 0
        self.obs_aps_retries = registry.counter("aps_retries", server="rs1")
        self.obs_auq_lag = registry.histogram("auq_lag_ms", server="rs1")
        self.obs_auq_lag_last = registry.gauge("auq_lag_last_ms",
                                               server="rs1")
        self.failures = failures
        self.attempt_times = []

    def handle_index_ops(self, ops, background, index_pool):
        self.attempt_times.append(self.sim.now())
        if len(self.attempt_times) <= self.failures:
            raise RpcError("injected delivery failure")
        return
        yield  # pragma: no cover


def _fake_plan(server, task, span=None):
    return [("put", "t_ix", b"k1", task.ts)]
    yield  # pragma: no cover


def _stub_server(failures):
    sim = Simulator()
    registry = MetricsRegistry()
    return _ServerStub(sim, _ClusterStub(sim, registry), registry, failures)


def test_backoff_doubles_from_base_and_caps(monkeypatch):
    monkeypatch.setattr("repro.core.auq.plan_index_ops", _fake_plan)
    failures = 6
    server = _stub_server(failures)
    sim = server.sim
    task = IndexTask("t", b"r1", {"c": b"v"}, 0)

    sim.run_until_complete(sim.spawn(_process_batch(server, [task]),
                                     name="aps"))

    attempts = server.attempt_times
    assert len(attempts) == failures + 1   # retried to success
    gaps = [b - a for a, b in zip(attempts, attempts[1:])]
    expected = [min(APS_RETRY_BACKOFF_MS * 2 ** i, APS_RETRY_BACKOFF_CAP_MS)
                for i in range(failures)]
    assert gaps == pytest.approx(expected)
    assert expected[:2] == [APS_RETRY_BACKOFF_MS, 2 * APS_RETRY_BACKOFF_MS]
    assert expected[-1] == APS_RETRY_BACKOFF_CAP_MS   # the cap engaged
    assert server.aps_retries == failures
    assert server.obs_aps_retries.value == failures
    # the task completed exactly once despite the failures
    assert len(server.staleness.records) == 1
    assert server.obs_auq_lag.count == 1


def test_no_failures_means_no_backoff(monkeypatch):
    monkeypatch.setattr("repro.core.auq.plan_index_ops", _fake_plan)
    server = _stub_server(failures=0)
    sim = server.sim
    task = IndexTask("t", b"r1", {"c": b"v"}, 0)

    sim.run_until_complete(sim.spawn(_process_batch(server, [task]),
                                     name="aps"))

    assert len(server.attempt_times) == 1
    assert server.aps_retries == 0
    assert sim.now() == server.attempt_times[0]   # no backoff sleeps


# ---------------------------------------------------------------------------
# Integration: injected RpcErrors on a real cluster still converge
# ---------------------------------------------------------------------------

def test_aps_retries_until_success_after_injected_failures():
    cluster = MiniCluster(num_servers=3, seed=21).start()
    cluster.create_table("t")
    cluster.create_index(IndexDescriptor("ix", "t", ("c",),
                                         scheme=IndexScheme.ASYNC_SIMPLE))
    fail_budget = {"left": 5}
    for server in cluster.servers.values():
        original = server.handle_index_ops

        def wrapped(ops, background, index_pool, _original=original):
            if fail_budget["left"] > 0:
                fail_budget["left"] -= 1
                raise RpcError("injected APS delivery failure")
            result = yield from _original(ops, background, index_pool)
            return result

        server.handle_index_ops = wrapped

    client = cluster.new_client()
    for i in range(10):
        cluster.run(client.put("t", f"r{i}".encode(), {"c": b"x"}))
    cluster.quiesce()

    assert fail_budget["left"] == 0                 # every failure consumed
    total_retries = sum(s.aps_retries for s in cluster.servers.values())
    assert total_retries == 5
    assert cluster.metrics.total("aps_retries") == 5
    # despite the failures, the index converged — no task was lost
    assert check_index(cluster, "ix").is_consistent


def test_failed_group_split_across_servers_by_recovery_converges():
    """Both index regions sit on rs2 when the APS plans its batch, so the
    ops form one target group; rs2 dies, and recovery spreads the two
    regions over rs3 and rs1.  The retry must re-route every op of the
    failed group, not only its first — re-sending the whole group to the
    first op's new owner is rejected there forever."""
    cluster = MiniCluster(num_servers=3, seed=7).start()
    cluster.create_table("t")
    assert cluster.master.layout["t"][0].server_name == "rs1"
    ix = cluster.create_index(
        IndexDescriptor("ix", "t", ("c",), scheme=IndexScheme.ASYNC_SIMPLE),
        split_keys=[index_prefix([b"m"])]).name
    for info in list(cluster.master.layout[ix]):
        if info.server_name != "rs2":
            assert cluster.run(cluster.placement.move_region(
                ix, info.region_name, "rs2"))
    assert {i.server_name for i in cluster.master.layout[ix]} == {"rs2"}

    rs1 = cluster.servers["rs1"]
    rs1.aps_gate.close()
    client = cluster.new_client()
    for i in range(6):
        cluster.run(client.put("t", f"r{i}".encode(),
                               {"c": b"a" if i % 2 == 0 else b"z"}))
    cluster.kill_server("rs2")
    rs1.aps_gate.open()

    cluster.quiesce()
    assert len({i.server_name for i in cluster.master.layout[ix]}) == 2
    assert check_index(cluster, "ix").is_consistent
