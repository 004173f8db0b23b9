"""The coprocessor framework: server-side hooks and the base-row read.

HBase coprocessors are the extension point Diff-Index is built on (§7):
"they listen to and intercept each data entry made to the hosting table,
and act based on the schemes they implement."  A :class:`RegionObserver`
has two hooks: ``post_batch`` (inside the write RPC, after the base
write, before the ack) and ``pre_flush`` (the pause-and-drain hook of
Figure 5).  Every write — a single put or delete is a batch of one —
reaches an observer through ``post_batch``.

:func:`base_read` is the one primitive a hook needs besides index-op
delivery (:func:`repro.core.auq.ship_index_ops`): the versioned read of
the base row (the paper's RB step), charged to the simulated devices
and tallied in the Table 2 counters.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.server import RegionServer
    from repro.cluster.table import TableDescriptor

__all__ = ["RegionObserver", "base_read"]


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


def base_read(server: "RegionServer", table: str, row: bytes,
              columns: List[str], max_ts: Optional[int], background: bool,
              span: Any = None,
              ) -> Generator[Any, Any, Dict[str, Tuple[bytes, int]]]:
    """RB: versioned read of the base row, issued by ``server`` and
    traced as an ``RB`` span.  The base region normally lives on this
    very server (the put was routed here), so this is a local LSM read;
    after a region move it falls back to an RPC."""
    obs = server.cluster.tracer.start("RB", parent=span, server=server.name)
    try:
        region = server.region_for(table, row)
        if region is not None:
            result = yield from server.local_read_row(
                region, row, columns, max_ts, background=background)
            return result
        target, _region_name = server.cluster.locate(table, row)
        result = yield from server.cluster.network.call(
            target, lambda: target.handle_get(table, row, columns, max_ts,
                                              background=background))
        return result
    finally:
        obs.end()
