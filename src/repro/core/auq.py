"""Asynchronous Update Queue (AUQ) and Asynchronous Processing Service (APS).

The async schemes acknowledge a put as soon as the base write is logged
and an :class:`IndexTask` is queued (Algorithm 3); APS workers drain the
queue in the background and run the index maintenance steps (Algorithm 4:
RB at ``t_new − δ``, delete old entry, insert new entry).  The AUQ also
receives *failed* synchronous index operations — the paper's §6.2
durability degradation: a sync-full put whose index RPC fails is not
rolled back, its maintenance is retried here until it succeeds.

Every path picks a task's indexes with :func:`touched_indexes`, plans
its index ops with :func:`plan_insert_ops` / :func:`plan_delete_ops` and
writes them with :func:`ship_index_ops`, so the synchronous observers,
the overflow fallback and the APS cannot drift.  The deliveries that must
land eventually — the APS's and the online DDL's — go through
:func:`deliver_index_ops`, the one retry loop: a group that fails goes
back through :func:`ship_index_ops`, which re-routes every op in it.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from repro.errors import NoSuchRegionError, NoSuchTableError, RpcError
from repro.core.coprocessor import base_read
from repro.core.index import extract_index_values, row_index_key
from repro.lsm.types import DELTA_MS
from repro.obs.tracing import NULL_SPAN
from repro.sim.kernel import Timeout
from repro.sim.scatter import scatter_gather

__all__ = ["IndexTask", "aps_worker", "live_index_ops", "touched_indexes",
           "plan_insert_ops", "plan_delete_ops", "plan_index_ops",
           "ship_index_ops", "deliver_index_ops",
           "APS_RETRY_BACKOFF_MS", "APS_RETRY_BACKOFF_CAP_MS"]

APS_RETRY_BACKOFF_MS = 5.0
APS_RETRY_BACKOFF_CAP_MS = 80.0

# Trace span per statement group; the scatter metric keeps the site name.
_SPAN_FOR_SITE = {"index_pi": "PI", "index_di": "DI"}


class IndexTask:
    """One base mutation awaiting (re-)execution of its index maintenance.

    ``new_values is None`` encodes a row delete: in LSM "deletion can be
    treated as a put with a null value and a timestamp" (§4.3), so the
    task only removes old entries.

    A ``__slots__`` class (not a dataclass): one of these is allocated per
    indexed mutation, which makes it one of the hottest small objects in
    the wall-clock profile.
    """

    __slots__ = ("table", "row", "new_values", "ts", "enqueued_at",
                 "index_names", "span_id", "epoch")

    def __init__(self, table: str, row: bytes,
                 new_values: Optional[Dict[str, bytes]], ts: int,
                 enqueued_at: float = 0.0,
                 index_names: Optional[Tuple[str, ...]] = None,
                 span_id: Optional[int] = None,
                 epoch: Optional[int] = None):
        self.table = table
        self.row = row
        self.new_values = new_values
        self.ts = ts                 # the base entry's timestamp (paper's T1)
        self.enqueued_at = enqueued_at
        # Restrict maintenance to these indexes (schemes are chosen per
        # index, §3.4, so one put may fan out into one task per scheme
        # group).  None means every index of the table — used by
        # crash-replay re-delivery.
        self.index_names = index_names
        # Tracing: id of the originating put's root span, so the APS apply
        # span links back to the mutation it serves (enqueue → apply path).
        self.span_id = span_id
        # DDL epoch at enqueue time.  A task must never maintain an index
        # created *after* it was enqueued: a same-named index recreated
        # after a drop would otherwise be resurrected with pre-drop images
        # that nothing ever deletes.  None (WAL crash-replay) means
        # "unfiltered", which is safe — replayed records predate no index
        # they name, and superseded images are masked by the later
        # mutations' own tombstones.
        self.epoch = epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IndexTask({self.table!r}, {self.row!r}, ts={self.ts}, "
                f"indexes={self.index_names})")


def _skip_for_epoch(task: IndexTask, index: Any) -> bool:
    """True when the index was created after this task was enqueued (it
    belongs to a newer DDL epoch and this mutation must not touch it)."""
    return (task.epoch is not None
            and getattr(index, "created_epoch", 0) > task.epoch)


def touched_indexes(descriptor: Any, task: IndexTask) -> list:
    """The global indexes this task must maintain: owned by the task's
    scheme group, alive at the task's epoch, and (for a put) covering at
    least one written column.  A row delete touches every owned index.
    ``descriptor`` is the base table's :class:`TableDescriptor`."""
    touched = []
    for index in descriptor.indexes.values():
        if index.is_local:
            continue  # local indexes are maintained inside the put record
        if task.index_names is not None and index.name not in task.index_names:
            continue
        if _skip_for_epoch(task, index):
            continue
        if task.new_values is None or any(col in task.new_values
                                          for col in index.columns):
            touched.append(index)
    return touched


def plan_insert_ops(task: IndexTask, touched: list) -> list:
    """SU2/BA4 for one task as a 5-tuple op list — pure computation, no
    I/O: every insert into a ``touched`` index carries the base ts fixed
    at SU1 plus the target index's ``created_epoch`` for drop/recreate
    protection."""
    if task.new_values is None:
        return []  # a delete inserts nothing
    ops = []
    for index in touched:
        new_tuple = extract_index_values(index, task.new_values)
        if new_tuple is not None:
            ops.append(("put", index.table_name,
                        row_index_key(index, new_tuple, task.row),
                        task.ts,
                        getattr(index, "created_epoch", 0)))
    return ops


def plan_delete_ops(server: Any, task: IndexTask, touched: list,
                    background: bool,
                    span: Any = None) -> Generator[Any, Any, list]:
    """SU3/BA2+BA3-plan for one task: ONE versioned base read at
    ``ts − δ`` (issued by ``server``) covering every ``touched`` index,
    then the DI op list (each delete tombstones at ``ts − δ``, the §4.3
    arithmetic)."""
    if not touched:
        return []
    columns = sorted({col for index in touched for col in index.columns})
    old_row = yield from base_read(
        server, task.table, task.row, columns, max_ts=task.ts - DELTA_MS,
        background=background, span=span)
    old_values = {col: value for col, (value, _ts) in old_row.items()}
    ops = []
    for index in touched:
        old_tuple = extract_index_values(index, old_values)
        if old_tuple is not None:
            ops.append(("del", index.table_name,
                        row_index_key(index, old_tuple, task.row),
                        task.ts - DELTA_MS,
                        getattr(index, "created_epoch", 0)))
    return ops


def plan_index_ops(server: Any, task: IndexTask,
                   span: Any = None) -> Generator[Any, Any, list]:
    """BA2 for one task: read the old row, return the DI/PI op list as
    ``("del"|"put", index_table, key, ts, epoch)`` tuples (deletes first —
    Algorithm 4's BA3 before BA4).  The trailing ``epoch`` is the target
    index's ``created_epoch`` at planning time, so delivery can drop ops
    whose index was dropped (or dropped and recreated) in the meantime.
    The insert set is re-derived after the read: a DDL may land during
    it."""
    descriptor = server.cluster.descriptor
    dels = yield from plan_delete_ops(
        server, task, touched_indexes(descriptor(task.table), task),
        background=True, span=span)
    return dels + plan_insert_ops(
        task, touched_indexes(descriptor(task.table), task))


def ship_index_ops(cluster: Any, server: Any, ops: list, background: bool,
                   index_pool: bool, site: Optional[str] = None,
                   span: Any = None) -> Generator[Any, Any, None]:
    """Deliver ONE statement group's ops (all PIs, or all DIs) as
    per-target batched RPCs — the one way index entries are written.

    Ops bound for the same region server travel in one
    ``handle_index_ops`` call and share one group-committed WAL write;
    distinct targets fan out in parallel.  The call returns only when
    every delivery landed — it is the statement-group barrier that keeps
    the PI-before-DI order (all PIs land before any DI leaves).  No
    timestamp is assigned here: every entry carries the base ts fixed at
    SU1, so parallel landing order cannot perturb the δ arithmetic of
    §4.3.  ``background`` and ``index_pool`` pass straight through to
    :meth:`RegionServer.handle_index_ops`.

    ``server`` is the issuing region server (a delivery to itself skips
    the network), or None for the master-side DDL.  ``site``
    (``index_pi`` / ``index_di``) names the scatter site and the
    ``PI`` / ``DI`` trace span; the retried deliveries of
    :func:`deliver_index_ops` pass None and open no span.

    Raises on a stale or missing route (``NoSuchRegionError``) or a lost
    RPC; the caller owns the retry/degrade policy.
    """
    if not ops:
        return
    # A drop may have landed since planning (a DI's plan spans its read).
    ops = live_index_ops(cluster, ops)
    if not ops:
        return
    groups = _route(cluster, ops)
    if None in groups:
        raise NoSuchRegionError("no route for index ops (region recovering)")
    obs = (NULL_SPAN if site is None else
           cluster.tracer.start(_SPAN_FOR_SITE[site], parent=span,
                                server=server.name, rows=len(ops)))
    try:
        if len(groups) > 1:
            yield scatter_gather(
                cluster.sim,
                [(lambda t=target, group=group:
                  _send(cluster, server, t, group, background, index_pool))
                 for target, group in groups.items()],
                max_fanout=cluster.server_config.scatter_max_fanout,
                name=site or "index_ops", metrics=cluster.metrics, site=site)
            return
        # One target (the common case): deliver in this frame, without
        # the scatter machinery.
        (target, group), = groups.items()
        yield from _send(cluster, server, target, group, background,
                         index_pool)
    finally:
        obs.end()


def _route(cluster: Any, ops: list) -> Dict[Any, list]:
    """Group ops by the server hosting each op's index region, in
    first-locate order and keeping op order within a group.  Ops with no
    route right now (a region mid-recovery or mid-split) go under None."""
    groups: Dict[Any, list] = {}
    for op in ops:
        try:
            target, _region = cluster.locate(op[1], op[2])
        except (NoSuchRegionError, NoSuchTableError):
            target = None
        groups.setdefault(target, []).append(op)
    return groups


def _send(cluster: Any, server: Any, target: Any, ops: list,
          background: bool, index_pool: bool) -> Generator[Any, Any, None]:
    """The delivery coroutine for one target: a local call when the
    issuing server is the target, an RPC otherwise."""
    if target is server:
        return server.handle_index_ops(ops, background, index_pool)
    return cluster.network.call(
        target, lambda: target.handle_index_ops(ops, background, index_pool))


def deliver_index_ops(cluster: Any, server: Any, ops: list,
                      backoff_ms: float, backoff_cap_ms: float,
                      ) -> Generator[Any, Any, bool]:
    """Deliver ops until every one has landed or its index is gone — the
    one retry loop for index-op deliveries, shared by the APS (``server``
    is the worker's server) and the online DDL (``server`` is None).

    The ops go out per target server, one group after another in
    first-locate order, each first to the server it was located on, with
    async counters on the regular handler pool (neither caller holds a
    handler slot).  A group that fails — a lost
    RPC, a dead target, a stale route — waits out a backoff that doubles
    from ``backoff_ms`` up to ``backoff_cap_ms``, then goes back through
    :func:`ship_index_ops`, which re-routes *every* op in it: a group
    whose regions a recovery or move spread over several servers still
    lands.  Each retry counts in the server's ``aps_retries``.  Returns
    False, with the rest undelivered, if ``server`` died while backing
    off; True once everything landed.
    """
    for target, group in _route(cluster, live_index_ops(cluster, ops)).items():
        backoff = backoff_ms
        while True:
            try:
                if target is None:   # unroutable at first, or a retry
                    yield from ship_index_ops(cluster, server, group,
                                              background=True,
                                              index_pool=False)
                else:
                    yield from _send(cluster, server, target, group,
                                     background=True, index_pool=False)
                break
            except (NoSuchRegionError, RpcError):
                # NoSuchRegionError: the route went stale (the region
                # moved or split away) or is missing mid-recovery.
                if server is not None:
                    server.aps_retries += 1
                    server.obs_aps_retries.inc()
                yield Timeout(backoff)
                backoff = min(backoff * 2, backoff_cap_ms)
                if server is not None and not server.alive:
                    return False
                target = None
    return True


def live_index_ops(cluster: Any, ops: list) -> list:
    """Drop ops whose target index no longer exists at its planning epoch.

    Re-checked on every delivery attempt (not just once): a drop can land
    between planning and delivery, or between delivery retries.  Without
    this, an in-flight op for a dropped index either spins forever
    (table gone → locate fails → infinite APS retry) or — worse — lands
    in a same-named recreated index and resurrects a pre-drop image."""
    by_table = getattr(cluster, "index_by_table", None)
    if by_table is None:
        return ops
    kept = []
    for op in ops:
        if len(op) > 4:
            live = by_table.get(op[1])
            if live is None or live.created_epoch != op[4]:
                continue
        kept.append(op)
    return kept


def aps_worker(server: Any, worker_id: int) -> Generator[Any, Any, None]:
    """One APS thread: dequeue a burst, plan each task's ops, deliver them
    in per-target batches, repeat.

    * Batching — "this moderate higher throughput is credited to the
      batching of operations in AUQ" (§8.2): ops bound for the same
      region server travel in one RPC and share one group-committed WAL
      append, instead of one round trip + one log write each.
    * Retrying inside the worker (rather than re-enqueueing) keeps the
      task inside the in-flight latch, so the drain-before-flush barrier
      cannot complete while any index update is still owed — preserving
      the paper's ``PR(Flushed) = ∅`` invariant.
    """
    while server.alive:
        task: Optional[IndexTask] = yield server.auq.get()
        server.obs_auq_depth.set(len(server.auq))
        if task is None or not server.alive:   # woken during shutdown
            return
        # Count the task as in-flight from the moment it leaves the queue
        # so backlog accounting (and the drain barrier) never lose sight
        # of it, even while the worker is paused at the operator gate.
        server.auq_inflight.increment()
        batch = [task]
        try:
            yield server.aps_gate.wait_open()  # operator pause toggle
            if not server.alive:
                return
            while (len(batch) < server.config.aps_batch_size
                   and len(server.auq) > 0):
                extra = server.auq.get_nowait()
                if extra is None:
                    break
                batch.append(extra)
                server.auq_inflight.increment()
            server.obs_auq_depth.set(len(server.auq))
            yield from _process_batch(server, batch)
        finally:
            for _ in batch:
                server.auq_inflight.decrement()


def _process_batch(server: Any, batch: list) -> Generator[Any, Any, None]:
    # One "aps_apply" span per task, parented to the originating put's
    # root span: the async half of the mutation's trace tree.
    tracer = server.cluster.tracer
    all_ops = []
    spans = []
    for task in batch:
        span = tracer.start("aps_apply", parent=task.span_id,
                            server=server.name, table=task.table)
        spans.append(span)
        ops = yield from plan_index_ops(server, task, span=span)
        all_ops.extend(ops)
    landed = yield from deliver_index_ops(
        server.cluster, server, all_ops, APS_RETRY_BACKOFF_MS,
        APS_RETRY_BACKOFF_CAP_MS)
    if not landed:
        return
    now = server.sim.now()
    for task, span in zip(batch, spans):
        server.staleness.record(task.ts, now)
        # Live Figure 11: the lag between the base entry's visibility (T1,
        # the base timestamp) and the moment its index maintenance landed
        # (T2, now) — same definition the StalenessTracker records, so the
        # two instrumentations can be cross-checked exactly.
        lag = max(0.0, now - task.ts)
        server.obs_auq_lag.observe(lag)
        server.obs_auq_lag_last.set(lag)
        span.end()
