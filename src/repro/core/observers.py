"""The Diff-Index coprocessors (§7, Figure 6) plus validation.

* :class:`SyncFullObserver` — Algorithm 1 inside the put RPC: insert new
  entry, read the old value at ``t_new − δ``, delete the old entry.  The
  put is acknowledged only when all of it is done (causal consistency).
* :class:`SyncInsertObserver` — Algorithm 1 truncated to SU1+SU2: only
  the insert is synchronous; stale entries are repaired at read time.
* :class:`AsyncObserver` — Algorithm 3: enqueue an :class:`IndexTask`
  into the AUQ and acknowledge immediately; Algorithm 4 runs in the APS.
* :class:`ValidationObserver` — Luo & Carey's validation strategy: ship
  the index insert blindly in the background (cheapest foreground path of
  any sync scheme); reads validate hits and a cleaner collects the rest.

Schemes are chosen *per index* (§3.4), so each observer filters the
table's indexes down to the ones it owns; a put on a table with a
sync-full index and an async index runs both observers, each on its own
index set.

Failure handling follows §6.2: a failed synchronous index operation does
not roll back the base put — the whole task degrades to the AUQ, where
the APS retries it to eventual success.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Generator, List, Optional, Tuple, \
    TYPE_CHECKING

from repro.errors import NoSuchRegionError, RpcError
from repro.core.auq import (IndexTask, plan_delete_ops, plan_insert_ops,
                            ship_index_ops, touched_indexes)
from repro.core.coprocessor import RegionObserver
from repro.core.schemes import IndexScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.server import RegionServer
    from repro.cluster.table import TableDescriptor

__all__ = ["SyncFullObserver", "SyncInsertObserver", "ValidationObserver",
           "AsyncObserver", "build_observers"]

# One write's rows as post_batch receives them: (kind, row, values, ts).
Rows = List[Tuple[str, bytes, Optional[Dict[str, bytes]], int]]


def _owned_indexes(table: TableDescriptor,
                   schemes: FrozenSet[IndexScheme]) -> Tuple[str, ...]:
    return tuple(index.name for index in table.indexes.values()
                 if index.scheme in schemes and not index.is_local)


def _tasks(server: "RegionServer", table: TableDescriptor, rows: Rows,
           names: Tuple[str, ...], span: Any,
           puts_only: bool = False) -> List[IndexTask]:
    """One :class:`IndexTask` per row (deletes skipped when
    ``puts_only``), restricted to the observer's own indexes."""
    now = server.sim.now()
    span_id = getattr(span, "span_id", None)
    epoch = server.cluster.ddl_epoch
    return [IndexTask(table.name, row, values, ts, enqueued_at=now,
                      index_names=names, span_id=span_id, epoch=epoch)
            for _kind, row, values, ts in rows
            if values is not None or not puts_only]


def _insert_ops(table: TableDescriptor, tasks: List[IndexTask]) -> list:
    """Every task's PI ops, in task order."""
    ops: list = []
    for task in tasks:
        ops.extend(plan_insert_ops(task, touched_indexes(table, task)))
    return ops


class SyncFullObserver(RegionObserver):
    SCHEMES = frozenset({IndexScheme.SYNC_FULL})

    def post_batch(self, server: "RegionServer", table: TableDescriptor,
                   rows: Rows, span: Any) -> Generator[Any, Any, None]:
        """Algorithm 1 for the whole write as three phases — §8.2's
        batching on the foreground path:

        1. SU2: PI ops for EVERY row, grouped per target index server,
           one RPC + one group commit per group;
        2. SU3: one versioned base read per row at its own ``ts − δ``;
        3. SU4: DI ops grouped and shipped the same way.

        The phase boundary is a barrier, so the PI-before-DI order holds
        for every row at once; each row keeps the timestamps fixed at its
        SU1, so batching cannot perturb the δ arithmetic or the per-row
        staleness semantics.  A single put is the batch of one.
        """
        names = _owned_indexes(table, self.SCHEMES)
        if not names:
            return
        tasks = _tasks(server, table, rows, names, span)
        cluster = server.cluster
        obs = server.tracer.start("sync_index", parent=span, scheme="full",
                                  server=server.name, rows=len(tasks))
        try:
            # One index set per row, fixed before SU2 and shared by SU3/4.
            touched = [touched_indexes(table, task) for task in tasks]
            inserts = []
            for task, indexes in zip(tasks, touched):
                inserts.extend(plan_insert_ops(task, indexes))
            yield from ship_index_ops(cluster, server, inserts,  # SU2
                                      background=False, index_pool=True,
                                      site="index_pi", span=obs)
            deletes = []
            for task, indexes in zip(tasks, touched):                  # SU3
                dels = yield from plan_delete_ops(server, task, indexes,
                                                  background=False, span=obs)
                deletes.extend(dels)
            yield from ship_index_ops(cluster, server, deletes,  # SU4
                                      background=False, index_pool=True,
                                      site="index_di", span=obs)
        except (NoSuchRegionError, RpcError):
            # Stale route from a concurrent split/move counts as a
            # transient failure.  Degrade the WHOLE write to the AUQ
            # (§6.2): every op carries its row's base timestamps, so
            # re-running deliveries that already landed is idempotent —
            # the APS converges the rest.
            for task in tasks:
                server.degrade_to_auq(task)
        finally:
            obs.end()


class SyncInsertObserver(RegionObserver):
    SCHEMES = frozenset({IndexScheme.SYNC_INSERT})

    def post_batch(self, server: "RegionServer", table: TableDescriptor,
                   rows: Rows, span: Any) -> Generator[Any, Any, None]:
        """SU1+SU2 only (§4.2): the write's inserts grouped per target
        index server, one RPC + one group commit per group.  Deletes
        contribute nothing: the tombstoned row makes existing entries
        stale, and reads repair them (Algorithm 2)."""
        names = _owned_indexes(table, self.SCHEMES)
        if not names:
            return
        tasks = _tasks(server, table, rows, names, span, puts_only=True)
        if not tasks:
            return
        obs = server.tracer.start("sync_index", parent=span,
                                  scheme="insert", server=server.name,
                                  rows=len(tasks))
        try:
            yield from ship_index_ops(
                server.cluster, server, _insert_ops(table, tasks),
                background=False, index_pool=True, site="index_pi", span=obs)
        except (NoSuchRegionError, RpcError):
            for task in tasks:
                server.degrade_to_auq(task)
        finally:
            obs.end()


class ValidationObserver(RegionObserver):
    """Luo & Carey's validation strategy (DESIGN.md §14): ship the index
    insert blindly — no base read, no synchronous wait — and let reads
    filter whatever turns stale.  The write's foreground cost is just the
    (pure) op planning; the actual index RPC rides a spawned background
    process tracked by ``auq_inflight`` so quiesce/drain still cover it.
    Deletes contribute nothing: the tombstoned base row makes existing
    entries fail validation, and the cleaner/compaction collect them."""

    SCHEMES = frozenset({IndexScheme.VALIDATION})

    def _ship_blind(self, server: "RegionServer", tasks: List[IndexTask],
                    ops: List[tuple]) -> None:
        """Spawn the fire-and-forget delivery.  ``auq_inflight`` is
        incremented while the write still holds its ``put_inflight``
        slot, so there is no window where a drain misses the ship."""
        server.auq_inflight.increment()

        def deliver() -> Generator[Any, Any, None]:
            obs = server.tracer.start("blind_index", scheme="validation",
                                      server=server.name, rows=len(tasks))
            try:
                yield from ship_index_ops(server.cluster, server, ops,
                                          background=True, index_pool=False,
                                          site="index_pi", span=obs)
                now = server.sim.now()
                for task in tasks:
                    server.staleness.record(task.ts, now)
            except (NoSuchRegionError, RpcError):
                # Transient routing failure (§6.2): the AUQ's retry loop
                # re-resolves the owner and converges the index.
                for task in tasks:
                    server.degrade_to_auq(task)
            finally:
                obs.end()
                server.auq_inflight.decrement()

        server.sim.spawn(deliver(), name=f"{server.name}:blind-ship")

    def post_batch(self, server: "RegionServer", table: TableDescriptor,
                   rows: Rows, span: Any) -> Generator[Any, Any, None]:
        """One blind ship for the whole write's inserts, grouped per
        target index server inside ``ship_index_ops``."""
        names = _owned_indexes(table, self.SCHEMES)
        if not names:
            return
        tasks = _tasks(server, table, rows, names, span, puts_only=True)
        ops = _insert_ops(table, tasks)
        if ops:
            self._ship_blind(server, tasks, ops)
        return
        yield  # pragma: no cover


class AsyncObserver(RegionObserver):
    SCHEMES = frozenset({IndexScheme.ASYNC_SIMPLE, IndexScheme.ASYNC_SESSION})

    def post_batch(self, server: "RegionServer", table: TableDescriptor,
                   rows: Rows, span: Any) -> Generator[Any, Any, None]:
        """AU1 (Algorithm 3): the whole write enters the AUQ under one
        enqueue charge and one watermark check.  Every row still becomes
        its own IndexTask — APS batching, staleness tracking, and
        crash-replay granularity are per row."""
        names = _owned_indexes(table, self.SCHEMES)
        if not names:
            return
        tasks = _tasks(server, table, rows, names, span)
        obs = server.tracer.start("enqueue", parent=span, server=server.name,
                                  rows=len(tasks))
        try:
            yield from server.enqueue_index_tasks(tasks)
        finally:
            obs.end()


def build_observers(table: TableDescriptor) -> Tuple[RegionObserver, ...]:
    """The coprocessors deployed on an index-enabled table (§7): one per
    scheme family actually used by the table's indexes."""
    schemes = {index.scheme for index in table.indexes.values()}
    observers = []
    if IndexScheme.SYNC_FULL in schemes:
        observers.append(SyncFullObserver())
    if IndexScheme.SYNC_INSERT in schemes:
        observers.append(SyncInsertObserver())
    if IndexScheme.VALIDATION in schemes:
        observers.append(ValidationObserver())
    if schemes & AsyncObserver.SCHEMES:
        observers.append(AsyncObserver())
    return tuple(observers)
