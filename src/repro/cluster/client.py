"""The client library.

Mirrors the HBase client plus the Diff-Index client-side component (§7):
partition-map caching with refresh-and-retry on stale routes, the
``getByIndex`` read API, and the session-consistency machinery — the
session cache lives here, in the client library, exactly as in §5.2.

All public methods are generator coroutines to be driven by the
simulator; :class:`repro.cluster.cluster.MiniCluster.run` provides the
blocking facade used by examples and tests.
"""

from __future__ import annotations

from typing import (Any, Dict, Generator, List, Optional, Sequence, Tuple,
                    TYPE_CHECKING)

from repro.errors import (IndexBuildingError, NoSuchIndexError,
                          NoSuchRegionError, NoSuchTableError,
                          ServerDownError, SimulationError)
from repro.core import reader as reader_mod
from repro.core.encoding import IndexableValue
from repro.core.index import IndexDescriptor
from repro.core.reader import IndexHit
from repro.core.schemes import IndexScheme
from repro.core.session import Session
from repro.lsm.types import Cell, KeyRange
from repro.cluster.region import compose_cell_key
from repro.replication.config import LatencyBound, ReadMode
from repro.sim.kernel import Timeout
from repro.sim.scatter import scatter_gather

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import MiniCluster
    from repro.cluster.master import RegionInfo

__all__ = ["Client", "MutationBatch"]


class MutationBatch:
    """Builder for one batched write: ordered puts and deletes against a
    single table, applied with :meth:`Client.batch_mutate`.

    The batch preserves statement order per row (a later mutation of the
    same row gets a later timestamp server-side) and reports results in
    input order.  Sessions are not supported on the batch path — session
    writes need the old row back per mutation, which is what the single
    :meth:`Client.put` already does.
    """

    def __init__(self, table: str):
        self.table = table
        self.mutations: List[Tuple[str, bytes, Any]] = []

    def put(self, row: bytes, values: Dict[str, bytes]) -> "MutationBatch":
        """Queue an insert/update of ``values`` into ``row``."""
        self.mutations.append(("put", row, dict(values)))
        return self

    def delete(self, row: bytes, columns: Sequence[str]) -> "MutationBatch":
        """Queue a delete of ``columns`` from ``row``."""
        self.mutations.append(("del", row, list(columns)))
        return self

    def __len__(self) -> int:
        return len(self.mutations)


class Client:
    """A Diff-Index client: cached partition map with refresh-and-retry
    routing, CRUD, scatter-gather multiget/scan, ``getByIndex``, and
    session-consistency bookkeeping.  Routing is by key range and server
    name only — never region name — so splits and migrations are
    absorbed by an ordinary :meth:`refresh_layout`."""

    def __init__(self, cluster: "MiniCluster", name: str = "client",
                 max_route_retries: int = 60, retry_backoff_ms: float = 50.0,
                 max_fanout: int = 16, read_mode: Any = ReadMode.LEADER,
                 max_staleness_ms: Optional[float] = None):
        self.cluster = cluster
        self.name = name
        self.max_route_retries = max_route_retries
        self.retry_backoff_ms = retry_backoff_ms
        # Default read mode for `get`: one of the ReadMode strings or a
        # LatencyBound instance; overridable per call.
        self.read_mode = read_mode
        # Staleness bound for follower reads; a follower whose measured
        # lag exceeds it is inadmissible and the read falls back to the
        # leader, so the bound is a GUARANTEE, not a hint.
        self.max_staleness_ms = (cluster.replication.max_staleness_ms
                                 if max_staleness_ms is None
                                 else max_staleness_ms)
        # Measured staleness of the last get (0.0 for leader-served
        # reads): the observable half of the bounded-staleness contract.
        self.last_read_staleness_ms = 0.0
        self._follower_rr = 0
        # Bound on concurrent outbound RPCs for scatter paths (multi-region
        # scans, multigets, read-repair deletes) — the client-side analogue
        # of an HBase connection pool size.
        self.max_fanout = max_fanout
        self._layout = cluster.master.snapshot_layout()
        # The master epoch this cache was copied at: cheap staleness probe
        # (`client.layout_epoch == master.routing_epoch`) without diffing
        # the partition map.
        self.layout_epoch = cluster.master.routing_epoch
        self._sessions: Dict[str, Session] = {}
        self.route_refreshes = 0

    # -- partition map -----------------------------------------------------------

    def refresh_layout(self) -> None:
        self._layout = self.cluster.master.snapshot_layout()
        self.layout_epoch = self.cluster.master.routing_epoch
        self.route_refreshes += 1

    def _locate(self, table: str, row: bytes) -> "RegionInfo":
        infos = self._layout.get(table)
        if infos is None:
            self.refresh_layout()
            infos = self._layout.get(table)
            if infos is None:
                raise NoSuchTableError(table)
        for info in infos:
            if info.key_range.contains(row):
                return info
        raise NoSuchRegionError(f"{table!r} has no region for {row!r}")

    def _routed(self, table: str, row: bytes, op_factory,
                ) -> Generator[Any, Any, Any]:
        """Route to the hosting server; on a stale route (dead server /
        moved region) refresh the map and retry with backoff — the client
        behaviour that rides out a region-server recovery."""
        attempts = 0
        while True:
            try:
                info = self._locate(table, row)
                server = self.cluster.servers[info.server_name]
                result = yield from self.cluster.network.call(
                    server, lambda: op_factory(server))
                return result
            except (ServerDownError, NoSuchRegionError):
                attempts += 1
                if attempts > self.max_route_retries:
                    raise
                self.refresh_layout()
                yield Timeout(self.retry_backoff_ms)

    # -- sessions ---------------------------------------------------------------

    def get_session(self, max_duration_ms: Optional[float] = None,
                    memory_limit_entries: int = 100_000) -> Session:
        kwargs = {"memory_limit_entries": memory_limit_entries}
        if max_duration_ms is not None:
            kwargs["max_duration_ms"] = max_duration_ms
        session = Session(self.cluster.sim.now(), **kwargs)
        self._sessions[session.session_id] = session
        return session

    def end_session(self, session: Session) -> None:
        session.end()
        self._sessions.pop(session.session_id, None)

    def _session_indexes(self, table: str) -> List[IndexDescriptor]:
        descriptor = self.cluster.descriptor(table)
        return [index for index in descriptor.indexes.values()
                if index.scheme is IndexScheme.ASYNC_SESSION]

    # -- CRUD -------------------------------------------------------------------

    def put(self, table: str, row: bytes, values: Dict[str, bytes],
            session: Optional[Session] = None,
            ) -> Generator[Any, Any, int]:
        """Insert/update columns of one row; returns the assigned ts."""
        want_old = bool(session is not None and not session.disabled
                        and self._session_indexes(table))
        if session is not None:
            session.touch(self.cluster.sim.now())
        ts, old = yield from self._routed(
            table, row,
            lambda server: server.handle_put(table, row, values,
                                             return_old=want_old))
        if want_old:
            old_values = {col: value
                          for col, (value, _ts) in (old or {}).items()}
            session.record_put(table, row, values, old_values, ts,
                               self._session_indexes(table))
        return ts

    def delete(self, table: str, row: bytes, columns: Sequence[str],
               session: Optional[Session] = None,
               ) -> Generator[Any, Any, int]:
        want_old = bool(session is not None and not session.disabled
                        and self._session_indexes(table))
        if session is not None:
            session.touch(self.cluster.sim.now())
        ts, old = yield from self._routed(
            table, row,
            lambda server: server.handle_delete(table, row, list(columns),
                                                return_old=want_old))
        if want_old:
            old_values = {col: value
                          for col, (value, _ts) in (old or {}).items()}
            session.record_delete(table, row, list(columns), old_values, ts,
                                  self._session_indexes(table))
        return ts

    def batch_put(self, table: str,
                  items: Sequence[Tuple[bytes, Dict[str, bytes]]],
                  ) -> Generator[Any, Any, List[int]]:
        """Batched put: apply ``(row, values)`` pairs via the multi_put
        RPC path; returns the assigned timestamps in input order."""
        batch = MutationBatch(table)
        for row, values in items:
            batch.put(row, values)
        result = yield from self.batch_mutate(batch)
        return result

    def batch_mutate(self, batch: MutationBatch,
                     ) -> Generator[Any, Any, List[int]]:
        """Apply a :class:`MutationBatch`: group the rows by hosting
        server from the cached layout, issue ONE ``handle_multi_put`` RPC
        per server (scatter), and return the per-row timestamps in input
        order.

        Retry semantics match :meth:`multi_get`'s routing-epoch story,
        at row granularity: rows a server answered ``("retry", ...)`` for
        (region moved or closing for a split), and rows whose whole group
        failed with a stale route or dead server, are re-routed after a
        layout refresh — already-applied rows are NOT re-sent.  A group
        re-sent after a mid-batch crash is safe: every row re-applies
        under a fresh (higher) timestamp, so convergence is unaffected
        (timestamp idempotence).
        """
        table = batch.table
        mutations = list(batch.mutations)
        if not mutations:
            return []
        results: List[Optional[int]] = [None] * len(mutations)
        pending = list(range(len(mutations)))
        attempts = 0

        def backoff():
            nonlocal attempts
            attempts += 1
            if attempts > self.max_route_retries:
                raise NoSuchRegionError(
                    f"batch to {table!r}: {len(pending)} rows still "
                    f"unroutable after {self.max_route_retries} retries")
            self.refresh_layout()

        while pending:
            try:
                groups: Dict[str, List[int]] = {}
                for i in pending:
                    info = self._locate(table, mutations[i][1])
                    groups.setdefault(info.server_name, []).append(i)
            except NoSuchRegionError:
                backoff()
                yield Timeout(self.retry_backoff_ms)
                continue

            def one_server(server_name: str):
                server = self.cluster.servers[server_name]
                sub = [mutations[i] for i in groups[server_name]]
                outcomes = yield from self.cluster.network.call(
                    server, lambda: server.handle_multi_put(table, sub))
                return outcomes

            # collect_errors: one group hitting a stale route must not
            # discard its siblings' already-applied results (fail-fast
            # would re-send rows that landed — harmless but wasteful).
            per_server = yield scatter_gather(
                self.cluster.sim,
                [lambda n=name: one_server(n) for name in sorted(groups)],
                max_fanout=self.max_fanout, collect_errors=True,
                name="multiput", metrics=self.cluster.metrics,
                site="multiput")

            retry: List[int] = []
            for server_name, outcomes in zip(sorted(groups), per_server):
                indices = groups[server_name]
                if isinstance(outcomes, (ServerDownError, NoSuchRegionError)):
                    retry.extend(indices)  # whole group re-routes
                    continue
                if isinstance(outcomes, BaseException):
                    raise outcomes
                for i, (status, payload) in zip(indices, outcomes):
                    if status == "ok":
                        results[i] = payload
                    else:          # ("retry", reason): only this row
                        retry.append(i)
            pending = sorted(retry)
            if pending:
                backoff()
                yield Timeout(self.retry_backoff_ms)
        return results

    def get(self, table: str, row: bytes,
            columns: Optional[List[str]] = None,
            max_ts: Optional[int] = None,
            session: Optional[Session] = None,
            read_mode: Any = None,
            ) -> Generator[Any, Any, Dict[str, Tuple[bytes, int]]]:
        """Read one row.  ``read_mode`` (default: the client's) picks a
        point on the consistency/latency spectrum:

        * ``"leader"`` — strong: the region leader answers.
        * ``"follower"`` — bounded staleness: a follower answers iff its
          measured lag is within ``max_staleness_ms``, else the leader.
        * ``"quorum"`` — strong + anti-entropy: leader and followers are
          read together; the leader's answer wins and lagging followers
          are read-repaired toward it.
        * a :class:`LatencyBound` — fastest admissible replica via
          scatter: first answer within its staleness bound wins, the
          leader once the latency budget runs out.

        ``self.last_read_staleness_ms`` reports how stale the returned
        data may be (0.0 when the leader served it).
        """
        mode = self.read_mode if read_mode is None else read_mode
        if isinstance(mode, LatencyBound):
            result = yield from self._latency_bound_get(table, row, columns,
                                                        max_ts, mode)
        elif mode == ReadMode.FOLLOWER:
            result = yield from self._follower_get(table, row, columns,
                                                   max_ts)
        elif mode == ReadMode.QUORUM:
            result = yield from self._quorum_get(table, row, columns, max_ts)
        else:
            result = yield from self._routed(
                table, row,
                lambda server: server.handle_get(table, row, columns, max_ts))
            self.last_read_staleness_ms = 0.0
        if session is not None and not session.disabled:
            session.touch(self.cluster.sim.now())
            result = session.merge_base_row(table, row, result)
        return result

    # -- replicated read paths ---------------------------------------------------

    def _follower_targets(self, info: "RegionInfo") -> List["RegionInfo"]:
        """Live follower hosts for ``info``, rotated round-robin so a
        client spreads its follower reads over the replica set."""
        servers = [self.cluster.servers[name]
                   for name in info.replica_servers
                   if name in self.cluster.servers
                   and self.cluster.servers[name].alive]
        if not servers:
            return []
        start = self._follower_rr % len(servers)
        self._follower_rr += 1
        return servers[start:] + servers[:start]

    def _follower_get(self, table: str, row: bytes,
                      columns: Optional[List[str]],
                      max_ts: Optional[int],
                      ) -> Generator[Any, Any, Dict[str, Tuple[bytes, int]]]:
        """Bounded-staleness read: try followers round-robin, accept the
        first whose advertised lag is within the bound; otherwise the
        leader serves (staleness 0 — the bound still holds)."""
        attempts = 0
        while True:
            try:
                info = self._locate(table, row)
                for follower in self._follower_targets(info):
                    try:
                        result, staleness = yield from self.cluster.network.call(
                            follower,
                            lambda f=follower: f.handle_replica_get(
                                table, info.region_name, row, columns,
                                max_ts),
                            source=self.name)
                    except (ServerDownError, NoSuchRegionError):
                        continue   # next follower; leader is the backstop
                    if staleness <= self.max_staleness_ms:
                        self.last_read_staleness_ms = staleness
                        return result
                leader = self.cluster.servers[info.server_name]
                result = yield from self.cluster.network.call(
                    leader,
                    lambda: leader.handle_get(table, row, columns, max_ts),
                    source=self.name)
                self.last_read_staleness_ms = 0.0
                return result
            except (ServerDownError, NoSuchRegionError):
                attempts += 1
                if attempts > self.max_route_retries:
                    raise
                self.refresh_layout()
                yield Timeout(self.retry_backoff_ms)

    def _quorum_get(self, table: str, row: bytes,
                    columns: Optional[List[str]],
                    max_ts: Optional[int],
                    ) -> Generator[Any, Any, Dict[str, Tuple[bytes, int]]]:
        """Quorum read: scatter over the leader and every follower, wait
        for all (collect_errors), require a majority of the replica set to
        have answered.  The leader's answer is authoritative — naive
        newest-timestamp merging would resurrect tombstoned columns from
        a lagging follower — and followers whose answers lag it are
        read-repaired toward the leader's cells."""
        attempts = 0
        while True:
            try:
                info = self._locate(table, row)
                leader = self.cluster.servers[info.server_name]
                followers = [self.cluster.servers[name]
                             for name in info.replica_servers
                             if name in self.cluster.servers]

                def read_leader():
                    result = yield from self.cluster.network.call(
                        leader,
                        lambda: leader.handle_get(table, row, columns,
                                                  max_ts),
                        source=self.name)
                    return result

                def read_follower(follower):
                    result, _staleness = yield from self.cluster.network.call(
                        follower,
                        lambda: follower.handle_replica_get(
                            table, info.region_name, row, columns, max_ts),
                        source=self.name)
                    return result

                answers = yield scatter_gather(
                    self.cluster.sim,
                    [read_leader] + [lambda f=f: read_follower(f)
                                     for f in followers],
                    max_fanout=self.max_fanout, collect_errors=True,
                    name="quorum_get", metrics=self.cluster.metrics,
                    site="quorum_get")
                for answer in answers:
                    if (isinstance(answer, BaseException)
                            and not isinstance(answer, (ServerDownError,
                                                        NoSuchRegionError))):
                        raise answer
                if isinstance(answers[0], BaseException):
                    # No authoritative copy — surface the routing failure
                    # and retry after recovery promotes a follower.
                    raise answers[0]
                quorum = (1 + len(info.replica_servers)) // 2 + 1
                reachable = sum(1 for answer in answers
                                if not isinstance(answer, BaseException))
                if reachable < quorum:
                    raise ServerDownError(
                        f"quorum read of {table!r}/{row!r}: only "
                        f"{reachable}/{quorum} replicas answered")
                authoritative = answers[0]
                yield from self._repair_followers(
                    table, info.region_name, row, authoritative,
                    [(follower, answer) for follower, answer
                     in zip(followers, answers[1:])
                     if not isinstance(answer, BaseException)])
                self.last_read_staleness_ms = 0.0
                return authoritative
            except (ServerDownError, NoSuchRegionError):
                attempts += 1
                if attempts > self.max_route_retries:
                    raise
                self.refresh_layout()
                yield Timeout(self.retry_backoff_ms)

    def _repair_followers(self, table: str, region_name: str, row: bytes,
                          authoritative: Dict[str, Tuple[bytes, int]],
                          follower_answers,
                          ) -> Generator[Any, Any, None]:
        """Push the leader's newer cells to any follower whose quorum
        answer lagged them.  Repairs are point fixes: columns the
        follower has that the leader lacks are left to the ship loop
        (the delete record is on its way; inventing a tombstone here
        would need a timestamp we do not have)."""
        repairs = []
        for follower, answer in follower_answers:
            cells = tuple(
                Cell(compose_cell_key(row, column), ts, value)
                for column, (value, ts) in sorted(authoritative.items())
                if column not in answer or answer[column][1] < ts)
            if cells:
                repairs.append((follower, cells))
        if not repairs:
            return
        def repair_one(follower, cells):
            count = yield from self.cluster.network.call(
                follower,
                lambda: follower.handle_replica_repair(table, region_name,
                                                       cells),
                source=self.name)
            return count
        # collect_errors: a follower dying mid-repair must not fail the
        # read — its replica died with it.
        yield scatter_gather(
            self.cluster.sim,
            [lambda f=f, c=c: repair_one(f, c) for f, c in repairs],
            max_fanout=self.max_fanout, collect_errors=True,
            name="quorum_repair", metrics=self.cluster.metrics,
            site="quorum_repair")

    def _latency_bound_get(self, table: str, row: bytes,
                           columns: Optional[List[str]],
                           max_ts: Optional[int], bound: LatencyBound,
                           ) -> Generator[Any, Any, Dict[str, Tuple[bytes, int]]]:
        """Latency-bound read: scatter to the leader AND every live
        follower at once, poll, and return the first admissible answer —
        a follower within ``bound.max_staleness_ms``, or the leader
        (always admissible).  When ``bound.budget_ms`` runs out with no
        admissible answer yet, block on the leader: the budget buys
        speculation, not weaker consistency."""
        attempts = 0
        while True:
            try:
                info = self._locate(table, row)
            except NoSuchRegionError:
                attempts += 1
                if attempts > self.max_route_retries:
                    raise
                self.refresh_layout()
                yield Timeout(self.retry_backoff_ms)
                continue
            leader = self.cluster.servers[info.server_name]
            leader_proc = self.cluster.sim.spawn(
                self.cluster.network.call(
                    leader,
                    lambda: leader.handle_get(table, row, columns, max_ts),
                    source=self.name),
                name=f"{self.name}/lb-leader")
            leader_proc._waited_on = True      # polled below
            follower_procs = []
            for name in info.replica_servers:
                follower = self.cluster.servers.get(name)
                if follower is None or not follower.alive:
                    continue
                proc = self.cluster.sim.spawn(
                    self.cluster.network.call(
                        follower,
                        lambda f=follower: f.handle_replica_get(
                            table, info.region_name, row, columns, max_ts),
                        source=self.name),
                    name=f"{self.name}/lb-{name}")
                proc._waited_on = True
                follower_procs.append(proc)
            deadline = self.cluster.sim.now() + bound.budget_ms
            while True:
                if (leader_proc.future.done()
                        and leader_proc.future.exception() is None):
                    self.last_read_staleness_ms = 0.0
                    return leader_proc.future.result()
                admissible = None
                for proc in follower_procs:
                    if not proc.future.done() or proc.future.exception():
                        continue
                    result, staleness = proc.future.result()
                    if staleness <= bound.max_staleness_ms and (
                            admissible is None or staleness < admissible[1]):
                        admissible = (result, staleness)
                if admissible is not None:
                    self.last_read_staleness_ms = admissible[1]
                    return admissible[0]
                still_running = [p for p in ([leader_proc] + follower_procs)
                                 if not p.future.done()]
                if not still_running or (self.cluster.sim.now() >= deadline
                                         and leader_proc.future.done()):
                    break
                if self.cluster.sim.now() >= deadline:
                    # Budget spent with nothing admissible: commit to the
                    # leader (strong) instead of polling on.
                    try:
                        result = yield leader_proc
                        self.last_read_staleness_ms = 0.0
                        return result
                    except (ServerDownError, NoSuchRegionError):
                        break
                yield Timeout(0.5)
            # Every speculative read failed (or came back inadmissible
            # and the leader errored): classic refresh-and-retry.
            attempts += 1
            if attempts > self.max_route_retries:
                leader_exc = (leader_proc.future.exception()
                              if leader_proc.future.done() else None)
                raise leader_exc or ServerDownError(
                    f"latency-bound read of {table!r}/{row!r}: no replica "
                    f"answered admissibly")
            self.refresh_layout()
            yield Timeout(self.retry_backoff_ms)

    def multi_get(self, table: str, rows: Sequence[bytes],
                  columns: Optional[List[str]] = None,
                  max_ts: Optional[int] = None,
                  session: Optional[Session] = None,
                  ) -> Generator[Any, Any, Dict[bytes, Dict[str, Tuple[bytes, int]]]]:
        """Parallel multiget: group ``rows`` by hosting server, issue one
        RPC per server (scatter), merge the per-server answers.

        K rows land in ~1 round trip instead of K; each listed row is
        still charged/counted as one base read server-side, so op counts
        are identical to K single gets.  Duplicate rows are deliberately
        NOT deduplicated for that same reason.
        """
        rows = list(rows)
        if not rows:
            return {}
        attempts = 0
        while True:
            try:
                groups: Dict[str, List[bytes]] = {}
                for row in rows:
                    info = self._locate(table, row)
                    groups.setdefault(info.server_name, []).append(row)

                def one_server(server_name: str):
                    server = self.cluster.servers[server_name]
                    batch = groups[server_name]
                    result = yield from self.cluster.network.call(
                        server, lambda: server.handle_multi_get(
                            table, batch, columns, max_ts))
                    return result

                per_server = yield scatter_gather(
                    self.cluster.sim,
                    [lambda n=name: one_server(n) for name in sorted(groups)],
                    max_fanout=self.max_fanout, name="multiget",
                    metrics=self.cluster.metrics, site="multiget")
                merged: Dict[bytes, Dict[str, Tuple[bytes, int]]] = {}
                for part in per_server:
                    merged.update(part)
                break
            except (ServerDownError, NoSuchRegionError):
                attempts += 1
                if attempts > self.max_route_retries:
                    raise
                self.refresh_layout()
                yield Timeout(self.retry_backoff_ms)
        if session is not None and not session.disabled:
            session.touch(self.cluster.sim.now())
            merged = {row: session.merge_base_row(table, row, data)
                      for row, data in merged.items()}
        return merged

    # -- scans ------------------------------------------------------------------

    def scan_table(self, table: str, key_range: KeyRange,
                   limit: Optional[int] = None, is_index: bool = False,
                   ) -> Generator[Any, Any, List[Cell]]:
        """Scan ``key_range`` across every region it overlaps, in key order."""
        attempts = 0
        while True:
            infos = self._layout.get(table)
            if infos is None:
                self.refresh_layout()
                infos = self._layout.get(table)
                if infos is None:
                    raise NoSuchTableError(table)
            try:
                return (yield from self._scan_attempt(
                    table, infos, key_range, limit, is_index))
            except (ServerDownError, NoSuchRegionError):
                attempts += 1
                if attempts > self.max_route_retries:
                    raise
                self.refresh_layout()
                yield Timeout(self.retry_backoff_ms)

    def _scan_attempt(self, table, infos, key_range, limit, is_index,
                      ) -> Generator[Any, Any, List[Cell]]:
        """Scatter the scan across every overlapping region in parallel.

        ``limit`` semantics: each region over-fetches up to the FULL limit
        (a later region cannot know how much earlier regions will return
        when they run concurrently), then the merge trims in key order.
        Regions are disjoint and spawned sorted by start key, so simple
        concatenation IS key order — asserted below, because the trim is
        only correct under that invariant.
        """
        overlapping = [info for info in
                       sorted(infos, key=lambda i: i.key_range.start)
                       if info.key_range.overlaps(key_range)]
        if not overlapping:
            return []

        def one_region(info):
            server = self.cluster.servers[info.server_name]
            clamped = key_range.clamp(info.key_range)
            if is_index:
                cells = yield from self.cluster.network.call(
                    server, lambda: server.handle_index_scan(table, clamped,
                                                             limit))
            else:
                cells = yield from self.cluster.network.call(
                    server, lambda: server.handle_scan(table, clamped, limit))
            return cells

        per_region = yield scatter_gather(
            self.cluster.sim,
            [lambda i=info: one_region(i) for info in overlapping],
            max_fanout=self.max_fanout, name="scan",
            metrics=self.cluster.metrics,
            site="scan_index" if is_index else "scan_base")

        out: List[Cell] = []
        for cells in per_region:
            if out and cells and cells[0].key < out[-1].key:
                raise SimulationError(
                    f"scan of {table!r}: merged region results out of key "
                    f"order ({cells[0].key!r} after {out[-1].key!r})")
            out.extend(cells)
        if limit is not None:
            out = out[:limit]
        return out

    # -- secondary-index reads ------------------------------------------------------

    def get_by_index(self, index_name: str,
                     equals: Optional[Sequence[IndexableValue]] = None,
                     low: Optional[IndexableValue] = None,
                     high: Optional[IndexableValue] = None,
                     limit: Optional[int] = None,
                     session: Optional[Session] = None,
                     ) -> Generator[Any, Any, List[IndexHit]]:
        """getByIndex: rowkeys (as :class:`IndexHit`) matching the predicate."""
        index = self.cluster.index_descriptor(index_name)
        if not index.is_readable:
            raise IndexBuildingError(
                f"index {index_name!r} is still building (online CREATE "
                f"has not reached ACTIVE)")
        hits = yield from reader_mod.get_by_index(
            self, index, equals=equals, low=low, high=high, limit=limit,
            session=session)
        return hits

    def get_rows_by_index(self, index_name: str,
                          equals: Optional[Sequence[IndexableValue]] = None,
                          low: Optional[IndexableValue] = None,
                          high: Optional[IndexableValue] = None,
                          limit: Optional[int] = None,
                          session: Optional[Session] = None,
                          ) -> Generator[Any, Any, List[Tuple[bytes, Dict]]]:
        """getByIndex plus fetching the matching base rows."""
        index = self.cluster.index_descriptor(index_name)
        hits = yield from self.get_by_index(index_name, equals=equals,
                                            low=low, high=high, limit=limit,
                                            session=session)
        if not hits:
            return []
        row_map = yield from self.multi_get(
            index.base_table, [hit.rowkey for hit in hits], session=session)
        rows = []
        for hit in hits:
            row_data = row_map.get(hit.rowkey, {})
            if row_data:
                rows.append((hit.rowkey, row_data))
        return rows

    def delete_index_entry(self, index_table: str, index_key: bytes,
                           ts: int) -> Generator[Any, Any, None]:
        """Used by the sync-insert read-repair path (Algorithm 2): one DI
        op, counted as synchronous work on the target's index pool."""
        yield from self._routed(
            index_table, index_key,
            lambda server: server.handle_index_ops(
                [("del", index_table, index_key, ts)], background=False,
                index_pool=True))
