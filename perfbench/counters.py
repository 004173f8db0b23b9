"""Sim-clock per-layer counters, read from the model's public state.

:class:`CounterProbe` snapshots the cluster's metrics registry, its
Table 2 :class:`~repro.cluster.counters.OpCounters`, its resources'
``utilisation()`` and the simulator's event count when the driven phase
starts, and again when it ends.  :meth:`CounterProbe.layer_counters`
turns the two snapshots into the ``sim.*``, ``cluster.*``, ``core.*``,
``lsm.*``, ``obs.*``, ``replication.*`` and ``scenario.*`` metrics.

Every value is on the simulated clock or a count, so for a fixed seed
it repeats exactly, whatever the host and whether or not the run was
profiled.  Nothing here yields to the simulator or draws randomness, so
reading the counters cannot change the run.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.cluster.cluster import MiniCluster
from repro.lsm.types import KeyRange, cell_size
from repro.obs.metrics import Histogram

_TOTALS = ("rpc_failures", "read_repair_repairs", "read_repair_checks",
           "aps_retries", "block_cache_hits", "block_cache_misses",
           "lsm_flushes", "lsm_compactions", "lsm_flush_cells",
           "lsm_memtable_cells", "remix_view_builds_total",
           "promotions_total")
_HISTOGRAMS = ("scatter_fanout", "scatter_gather_ms", "rpc_ms",
               "flush_gate_wait_ms", "auq_lag_ms", "wal_group_commit_size")


def _delta(end: Histogram, start: Histogram) -> Histogram:
    """The observations made between two snapshots of one histogram.

    min/max are those of the end snapshot, so only the extreme
    percentiles' clamping can see observations from before the start."""
    out = Histogram(end.name, bounds=end.bounds)
    out.bucket_counts = [a - b for a, b in zip(end.bucket_counts,
                                               start.bucket_counts)]
    out.count = end.count - start.count
    out.sum = end.sum - start.sum
    out.min, out.max = end.min, end.max
    return out


@dataclasses.dataclass
class _Snapshot:
    now: float
    events: int
    totals: Dict[str, float]
    histograms: Dict[str, Histogram]
    table2: Dict[str, int]
    spans: int
    busy: Dict[str, float]
    staleness_seen: int


class CounterProbe:
    """Start/stop snapshots of one cluster's counters over a driven phase."""

    def __init__(self, cluster: MiniCluster):
        self.cluster = cluster
        self._start: Optional[_Snapshot] = None
        self._end: Optional[_Snapshot] = None
        self.replication_lags: List[float] = []
        # Base-table bytes after the run, set by layer_counters().
        self.stored_bytes = self.live_bytes = 0

    def _snapshot(self) -> _Snapshot:
        cluster = self.cluster
        sim = cluster.sim
        metrics = cluster.metrics
        now = sim.now()
        busy: Dict[str, float] = {}
        for name, server in cluster.servers.items():
            # utilisation() is busy time over all elapsed sim time; times
            # `now` it is the busy time, which does difference cleanly.
            busy[f"{name}/handlers"] = server.handlers.utilisation() * now
            busy[f"{name}/disk"] = server.disk.utilisation() * now
        return _Snapshot(
            now=now,
            # Events executed = events scheduled minus events still queued.
            events=sim._seq - sim.pending_events(),
            totals={name: metrics.total(name) for name in _TOTALS},
            histograms={name: metrics.merged_histogram(name)
                        for name in _HISTOGRAMS},
            table2=cluster.counters.snapshot().as_dict(),
            spans=cluster.tracer.finished,
            busy=busy,
            staleness_seen=len(cluster.staleness.lags_ms))

    def start(self) -> None:
        self._start = self._snapshot()

    def stop(self) -> None:
        self._end = self._snapshot()

    def sample_replication_lag(self) -> None:
        """Record every live follower's staleness at this instant."""
        now = self.cluster.sim.now()
        for server in self.cluster.servers.values():
            if server.alive:
                for replica in server.follower_regions.values():
                    self.replication_lags.append(replica.staleness_at(now))

    def layer_counters(self, ops: int, switches: int = 0,
                       ) -> Dict[str, float]:
        """The sim-clock layer metrics over the driven phase, per ``ops``
        completed operations where a metric is a rate per op."""
        start, end = self._start, self._end
        if start is None or end is None:
            raise RuntimeError("layer_counters() needs start() and stop()")
        per_op = 1.0 / max(1, ops)
        total = {name: end.totals[name] - start.totals[name]
                 for name in _TOTALS}
        hist = {name: _delta(end.histograms[name], start.histograms[name])
                for name in _HISTOGRAMS}
        table2 = {name: end.table2[name] - start.table2[name]
                  for name in end.table2}
        elapsed = end.now - start.now

        def util(kind: str) -> float:
            keys = [k for k in end.busy if k.endswith(kind)]
            if not keys or elapsed <= 0:
                return 0.0
            return sum(end.busy[k] - start.busy.get(k, 0.0)
                       for k in keys) / (elapsed * len(keys))

        hits, misses = total["block_cache_hits"], total["block_cache_misses"]
        checks = total["read_repair_checks"]
        lags = sorted(self.replication_lags)
        staleness = self.cluster.staleness.lags_ms[start.staleness_seen:]
        auq_depth = [g.max_value for g in
                     self.cluster.metrics.find("auq_depth")]
        self.stored_bytes, self.live_bytes = table_bytes(self.cluster)
        return {
            "sim.events_per_op": (end.events - start.events) * per_op,
            "sim.scatter_fanout_mean": hist["scatter_fanout"].mean(),
            "sim.scatter_gather_p99_ms": hist["scatter_gather_ms"]
            .percentile(99),
            "cluster.rpcs_per_op": hist["rpc_ms"].count * per_op,
            "cluster.rpc_p99_ms": hist["rpc_ms"].percentile(99),
            "cluster.rpc_failures_per_op": total["rpc_failures"] * per_op,
            "cluster.handler_util": util("/handlers"),
            "cluster.disk_util": util("/disk"),
            "cluster.flush_gate_wait_p99_ms": hist["flush_gate_wait_ms"]
            .percentile(99),
            "core.base_reads_per_op": (table2["base_read"]
                                       + table2["async_base_read"]) * per_op,
            "core.index_puts_per_op": (
                table2["index_put"] + table2["index_delete"]
                + table2["async_index_put"]
                + table2["async_index_delete"]) * per_op,
            "core.index_reads_per_op": table2["index_read"] * per_op,
            "core.read_repair_ratio": (total["read_repair_repairs"] / checks
                                       if checks else 0.0),
            "core.auq_depth_max": max(auq_depth, default=0.0),
            "core.auq_lag_p99_ms": hist["auq_lag_ms"].percentile(99),
            "core.aps_retries_per_op": total["aps_retries"] * per_op,
            "core.staleness_max_ms": max(staleness, default=0.0),
            "lsm.block_cache_hit_rate": (hits / (hits + misses)
                                         if hits + misses else 0.0),
            "lsm.flushes": total["lsm_flushes"],
            "lsm.compactions": total["lsm_compactions"],
            "lsm.flushed_cells_per_user_cell": (
                total["lsm_flush_cells"] / total["lsm_memtable_cells"]
                if total["lsm_memtable_cells"] else 0.0),
            "lsm.space_amp": (self.stored_bytes / self.live_bytes
                              if self.live_bytes else 0.0),
            "lsm.wal_group_commit_mean": hist["wal_group_commit_size"].mean(),
            "lsm.remix_view_builds": total["remix_view_builds_total"],
            "obs.spans_per_op": (end.spans - start.spans) * per_op,
            "replication.lag_p99_ms": (
                lags[min(len(lags) - 1, int(0.99 * len(lags)))]
                if lags else 0.0),
            "replication.promotions": total["promotions_total"],
            "scenario.switches": float(switches),
        }


def table_bytes(cluster: MiniCluster) -> Tuple[int, int]:
    """(stored, live) bytes of the base tables' leader regions: stored is
    what memtables and SSTables hold, every version and tombstone; live
    is the newest visible cell of each key."""
    stored = live = 0
    for table, infos in cluster.master.layout.items():
        if cluster.master.descriptor(table).is_index:
            continue
        for info in infos:
            region = cluster.servers[info.server_name].regions.get(
                info.region_name)
            if region is None:
                continue
            stored += region.tree.total_bytes
            live += sum(cell_size(cell) for cell in region.tree.scan(
                KeyRange(info.key_range.start, info.key_range.end)))
    return stored, live
