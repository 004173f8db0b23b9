"""Index maintenance utilities (§7: "a utility for index creation,
maintenance and cleanse").

* :func:`scrub_index` — the *cleanse*: sweep the index table and delete
  every stale entry (the double-check of Algorithm 2 applied offline to
  the whole index instead of lazily per query).  Running it after a
  lazy-scheme phase (sync-insert or validation) — or before
  strengthening an index's scheme — leaves the index exactly consistent.
* :func:`rebuild_index` — drop all entries and rebuild from base data.
* :func:`purge_discovered_entries` — synchronously drain the validation
  cleaner's backlog (the deferred GC of DESIGN.md §14, foregrounded).

Both run as client-driven coroutines, paying normal read/write costs, so
they can be benchmarked like any other workload.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Generator, TYPE_CHECKING

from repro.core.encoding import decode_index_key
from repro.core.index import IndexDescriptor, extract_index_values
from repro.lsm.types import KeyRange

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.client import Client
    from repro.cluster.cluster import MiniCluster

__all__ = ["ScrubReport", "scrub_index", "rebuild_index",
           "purge_discovered_entries"]


@dataclasses.dataclass
class ScrubReport:
    index_name: str
    entries_checked: int = 0
    stale_deleted: int = 0
    missing_inserted: int = 0


def scrub_index(cluster: "MiniCluster", client: "Client", index_name: str,
                repair_missing: bool = False,
                ) -> Generator[Any, Any, ScrubReport]:
    """Sweep every entry; delete the stale, optionally insert the missing.

    ``repair_missing=True`` additionally walks the base table and inserts
    entries that should exist but do not (useful after an unclean period
    with the drain protocol disabled)."""
    index = cluster.index_descriptor(index_name)
    report = ScrubReport(index_name)

    cells = yield from client.scan_table(index.table_name, KeyRange(),
                                         is_index=True)
    for cell in cells:
        report.entries_checked += 1
        values, rowkey = decode_index_key(cell.key, len(index.columns))
        row = yield from client.get(index.base_table, rowkey,
                                    columns=list(index.columns))
        current = {col: value for col, (value, _ts) in row.items()}
        base_tuple = extract_index_values(index, current)
        if base_tuple != tuple(values):
            yield from client.delete_index_entry(index.table_name, cell.key,
                                                 cell.ts)
            report.stale_deleted += 1

    if repair_missing:
        inserted = yield from _repair_missing(cluster, client, index)
        report.missing_inserted = inserted
    return report


def _repair_missing(cluster: "MiniCluster", client: "Client",
                    index: IndexDescriptor) -> Generator[Any, Any, int]:
    from repro.core.index import row_index_key
    from repro.core.verify import actual_entries

    present = set(actual_entries(cluster, index))
    inserted = 0
    for info in cluster.master.layout[index.base_table]:
        server = cluster.servers[info.server_name]
        region = server.regions.get(info.region_name)
        if region is None:
            continue
        for row, row_data in region.iter_base_rows():
            values = {col: value for col, (value, _ts) in row_data.items()}
            tup = extract_index_values(index, values)
            if tup is None:
                continue
            key = row_index_key(index, tup, row)
            if key in present:
                continue
            target_server, _region = cluster.locate(index.table_name, key)
            # A repair insert takes a FRESH timestamp: the entry's original
            # ts may be burned by a tombstone (that is why it is missing),
            # and the tombstone-masks-<=ts rule would swallow a re-insert
            # at the same ts.  A current ts stays correct: any future
            # legitimate delete of this entry uses a newer t_new − δ.
            ts = target_server.assign_repair_timestamp()
            yield from cluster.network.call(
                target_server,
                lambda s=target_server, k=key, t=ts:
                s.handle_index_ops([("put", index.table_name, k, t)],
                                   background=False, index_pool=True))
            inserted += 1
    return inserted


def purge_discovered_entries(cluster: "MiniCluster", client: "Client",
                             ) -> Generator[Any, Any, int]:
    """Drain the validation cleaner's whole backlog right now, paying
    normal delete costs — the foreground spelling of the background GC
    (useful before a benchmark snapshot or a verification pass)."""
    total = 0
    while cluster.validation_cleaner.backlog:
        purged = yield from cluster.validation_cleaner.drain_batch(client)
        if purged == 0:
            break   # only transiently-unroutable entries remain
        total += purged
    return total


def rebuild_index(cluster: "MiniCluster", client: "Client", index_name: str,
                  ) -> Generator[Any, Any, int]:
    """Tombstone every existing entry, then re-derive all entries from
    the base table.  Returns the number of entries rebuilt."""
    index = cluster.index_descriptor(index_name)
    cells = yield from client.scan_table(index.table_name, KeyRange(),
                                         is_index=True)
    for cell in cells:
        yield from client.delete_index_entry(index.table_name, cell.key,
                                             cell.ts)
    rebuilt = yield from _repair_missing(cluster, client, index)
    return rebuilt
