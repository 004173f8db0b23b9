"""The coprocessor framework: server-side hooks and their operating context.

HBase coprocessors are the extension point Diff-Index is built on (§7):
"they listen to and intercept each data entry made to the hosting table,
and act based on the schemes they implement."  A :class:`RegionObserver`
has two hooks: ``post_batch`` (inside the write RPC, after the base
write, before the ack) and ``pre_flush`` (the pause-and-drain hook of
Figure 5).  Every write — a single put or delete is a batch of one —
reaches an observer through ``post_batch``.

:class:`IndexOpContext` is the toolbox handed to observers and to the
APS: versioned base reads and per-server batched index-op deliveries,
each charged to the simulated devices and tallied in the Table 2
counters.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import RpcError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.server import RegionServer
    from repro.cluster.table import TableDescriptor

__all__ = ["RegionObserver", "IndexOpContext"]


class RegionObserver:
    """Base class; hooks are generator coroutines so they may do I/O.

    ``post_batch`` receives the write's rows as ``(kind, row, values,
    ts)`` tuples — ``kind`` is ``"put"`` or ``"del"``, ``values`` is None
    for a delete — and ``span``, the root tracing span of the write RPC
    (see :mod:`repro.obs.tracing`); hooks parent their own spans to it so
    a mutation's full PI/RB/DI (or enqueue → APS-apply) story is one
    trace tree.
    """

    def post_batch(self, server: "RegionServer", table: TableDescriptor,
                   rows: List[Tuple[str, bytes, Optional[Dict[str, bytes]],
                                    int]],
                   span: Any) -> Generator[Any, Any, None]:
        return
        yield  # pragma: no cover

    def pre_flush(self, server: "RegionServer", region_name: str,
                  ) -> Generator[Any, Any, None]:
        return
        yield  # pragma: no cover


class IndexOpContext:
    """Server-bound executor for the primitive index-maintenance ops."""

    def __init__(self, server: "RegionServer"):
        self.server = server

    # -- metadata --------------------------------------------------------------

    def table_descriptor(self, table: str) -> TableDescriptor:
        return self.server.cluster.descriptor(table)

    def _span(self, name: str, parent: Any):
        """Child tracing span for one index-maintenance primitive — the
        paper's PI / RB / DI steps, timed individually."""
        return self.server.cluster.tracer.start(name, parent=parent,
                                                server=self.server.name)

    # -- primitive operations ----------------------------------------------------

    def base_read(self, table: str, row: bytes, columns: List[str],
                  max_ts: Optional[int], background: bool, span: Any = None,
                  ) -> Generator[Any, Any, Dict[str, Tuple[bytes, int]]]:
        """RB: versioned read of the base row.  The base region normally
        lives on this very server (the put was routed here), so this is a
        local LSM read; after a region move it falls back to an RPC."""
        obs = self._span("RB", span)
        try:
            region = self.server.region_for(table, row)
            if region is not None:
                result = yield from self.server.local_read_row(
                    region, row, columns, max_ts, background=background)
                return result
            target_server, _region_name = self.server.cluster.locate(table,
                                                                     row)
            network = self.server.cluster.network
            result = yield from network.call(
                target_server,
                lambda: target_server.handle_get(table, row, columns, max_ts,
                                                 background=background))
            return result
        finally:
            obs.end()

    def index_ops_batch(self, target: Any, ops: list,
                        background: bool = True, index_pool: bool = False,
                        ) -> Generator[Any, Any, None]:
        """Deliver a batch of ("put"|"del", table, key, ts) ops to one
        server in a single RPC with one group-committed log write — the
        AUQ batching the paper credits async's throughput edge to.  The
        defaults are the APS's: async counters, regular handler pool (see
        :meth:`RegionServer.handle_index_ops`)."""
        if target is None:
            raise RpcError("no route for batched index ops (recovering)")
        if target is self.server:
            yield from self.server.handle_index_ops(ops, background,
                                                    index_pool)
            return
        yield from self.server.cluster.network.call(
            target,
            lambda: target.handle_index_ops(ops, background, index_pool))
