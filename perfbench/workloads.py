"""The benchmark's workloads and one measured repetition of each.

A repetition builds a fresh cluster from the workload seed (timed as
set-up), drives it for a fixed simulated horizon (timed as the driven
phase, warm-up excluded), then quiesces it and checks its outputs.  The
simulated horizon, not the host clock, bounds the work, so for a fixed
seed every simulated result of a repetition repeats exactly; only the
host-clock numbers vary.

Host times are CPU seconds scaled to a reference host speed
(:mod:`speed`), with the garbage collector on, as users run the program;
``raw_host_s`` keeps the unscaled CPU seconds.
"""

from __future__ import annotations

import cProfile
import dataclasses
from typing import Any, Callable, Dict, List, Optional

from repro.bench.harness import Experiment, ExperimentConfig
from repro.core.schemes import IndexScheme
from repro.core.verify import check_index
from repro.scenario.runner import ScenarioRunner
from repro.scenario.scenarios import failure_storm
from repro.scenario.slo import WindowAccumulator, WindowReport
from repro.scenario.spec import ScenarioSpec, SloSpec
from repro.ycsb.driver import ClosedLoopDriver
from repro.ycsb.stats import LatencyRecorder, _percentile

from counters import CounterProbe
from speed import SpeedProbe

__all__ = ["WORKLOADS", "Repetition", "Workload", "sim_metrics",
           "sample_counts"]

# The latency tail is reported at p95: on write_sync_full p99 sits on
# the knee of the flush stalls (p98 about 11.5 sim-ms, p99 15 to 19
# sim-ms depending on the seed), while p95 holds within 1% across seeds.
# A tail is only reported from at least this many samples, so that ten
# or more lie beyond it.
MIN_TAIL_SAMPLES = 200

# Closed-loop workloads: simulated clients, and the length of their SLO
# windows.
CLIENTS = 16
WINDOW_MS = 500.0
# How often storm_rf3 samples every follower's replication lag.
LAG_SAMPLE_MS = 100.0

UPDATE_OPS = ("update", "insert")
READ_OPS = ("index_read",)


@dataclasses.dataclass
class Repetition:
    """What one set-up plus driven phase measured."""

    setup_s: float
    host_s: float
    raw_host_s: float
    sim_ms: float
    attempted: int
    failed: int
    latencies: LatencyRecorder
    windows: List[WindowReport]
    counters: Dict[str, float]
    info: Dict[str, float]
    problems: List[str]

    @property
    def completed(self) -> int:
        return self.latencies.count()


def _samples(reps: List[Repetition], ops) -> List[float]:
    return sorted(latency for rep in reps for op in ops
                  for latency in rep.latencies._samples.get(op, ()))


def sim_metrics(reps: List[Repetition]) -> Dict[str, float]:
    """The reproduction's outputs, pooled over repetitions; they repeat
    exactly for the same seeds."""
    updates, reads = _samples(reps, UPDATE_OPS), _samples(reps, READ_OPS)
    windows = [w for rep in reps for w in rep.windows]
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    sim_s = sum(rep.sim_ms for rep in reps) / 1000.0
    return {
        "sim_ops_per_s": sum(rep.completed for rep in reps) / sim_s,
        "sim_update_p50_ms": _percentile(updates, 50),
        "sim_update_p95_ms": _percentile(updates, 95),
        "sim_read_p50_ms": _percentile(reads, 50),
        "sim_read_p95_ms": _percentile(reads, 95),
        "ok_frac": (attempted - failed) / attempted,
        "slo_windows_met_frac": sum(w.compliant for w in windows)
        / len(windows),
    }


def sample_counts(reps: List[Repetition]) -> Dict[str, int]:
    return {"update": len(_samples(reps, UPDATE_OPS)),
            "read": len(_samples(reps, READ_OPS)),
            "windows": sum(len(rep.windows) for rep in reps)}


class _WindowedRecorder(LatencyRecorder):
    """A driver recorder that also feeds an SLO window accumulator."""

    def __init__(self, slo: SloSpec):
        super().__init__()
        self.window = WindowAccumulator(slo)

    def record(self, op: str, latency_ms: float) -> None:
        if self.recording:
            super().record(op, latency_ms)
            self.window.record(op, latency_ms)


class _RecordingAccumulator(WindowAccumulator):
    """A scenario tenant's window accumulator that also keeps every
    latency and failure for the whole run."""

    def __init__(self, slo: SloSpec, sink: LatencyRecorder,
                 tally: Dict[str, int]):
        super().__init__(slo)
        self.sink = sink
        self.tally = tally

    def record(self, op: str, latency_ms: float) -> None:
        self.sink.record(op, latency_ms)
        super().record(op, latency_ms)

    def record_failure(self) -> None:
        self.tally["failed"] += 1
        super().record_failure()

    def record_shed(self) -> None:
        self.tally["shed"] += 1
        super().record_shed()


def _index_problems(cluster) -> List[str]:
    """After quiesce every index must hold an entry for every base row;
    only sync-insert may keep stale entries (it repairs them at read)."""
    problems = []
    for descriptor in cluster.master.tables.values():
        for name, index in descriptor.indexes.items():
            report = check_index(cluster, name)
            if report.missing:
                problems.append(f"{name}: {len(report.missing)} missing "
                                "index entries after quiesce")
            if report.stale and index.scheme is not IndexScheme.SYNC_INSERT:
                problems.append(
                    f"{name}: {len(report.stale)} stale index entries "
                    f"after quiesce ({index.scheme.value})")
    return problems


def _sizes(cluster, probe: CounterProbe) -> Dict[str, float]:
    """The base tables' live and stored bytes against the block-cache
    bytes of all servers."""
    cache = sum(s.cache.capacity_bytes for s in cluster.servers.values())
    return {"live_bytes": probe.live_bytes,
            "stored_bytes": probe.stored_bytes, "cache_bytes": cache}


class Workload:
    name: str
    # Host seconds budgeted per repetition: a run of --seconds makes
    # max(1, seconds // nominal_s) repetitions.  A constant, so the
    # count never follows measured speed.
    nominal_s: float

    def setup(self, seed: int) -> Any:
        raise NotImplementedError

    def drive(self, staged: Any, seed: int,
              profiler: Optional[cProfile.Profile]) -> Repetition:
        raise NotImplementedError

    def repetition(self, seed: int,
                   profiler: Optional[cProfile.Profile] = None,
                   ) -> Repetition:
        clock = SpeedProbe(enabled=profiler is None).start()
        staged = self.setup(seed)
        clock.stop()
        rep = self.drive(staged, seed, profiler)
        rep.setup_s = clock.scaled_s
        return rep

    def setup_seconds(self, seed: int) -> float:
        clock = SpeedProbe().start()
        self.setup(seed)
        clock.stop()
        return clock.scaled_s


@dataclasses.dataclass
class ClosedLoop(Workload):
    """``CLIENTS`` simulated clients, each sending its next request when
    the previous one returns, against one table with a title index."""

    name: str
    rows: int
    titles: int
    scheme: str
    cache_bytes: int
    mix: Dict[str, float]
    distribution: str
    slo: SloSpec
    warmup_ms: float
    duration_ms: float
    nominal_s: float
    # Each region of the written tables flushes at least this often in
    # the driven phase (0: no check).
    min_flushes_per_region: int = 0

    def setup(self, seed: int) -> Experiment:
        # The flush threshold is the harness default (512 KB).
        return Experiment(ExperimentConfig(
            record_count=self.rows, title_cardinality=self.titles,
            scheme_label=self.scheme, block_cache_bytes=self.cache_bytes,
            seed=seed))

    def drive(self, exp: Experiment, seed: int,
              profiler: Optional[cProfile.Profile]) -> Repetition:
        cluster = exp.cluster
        sim = cluster.sim
        workload = exp.workload(self.mix, self.distribution)
        # Warm-up: its own clients and seed, neither timed nor counted.
        ClosedLoopDriver(cluster, workload, exp.TABLE, num_threads=CLIENTS,
                         seed=seed + 7919).run(duration_ms=self.warmup_ms)

        driver = ClosedLoopDriver(cluster, workload, exp.TABLE,
                                  num_threads=CLIENTS, seed=seed)
        recorder = driver.recorder = _WindowedRecorder(self.slo)
        windows: List[WindowReport] = []
        start = sim.now()
        for i in range(int(self.duration_ms // WINDOW_MS)):
            sim.call_at(start + (i + 1) * WINDOW_MS, self._close_window,
                        recorder, windows, i, start)
        probe = CounterProbe(cluster)
        probe.start()
        clock = SpeedProbe(enabled=profiler is None).start()
        if profiler is not None:
            profiler.enable()
        driver.run(duration_ms=self.duration_ms)
        if profiler is not None:
            profiler.disable()
        clock.stop()
        probe.stop()

        ops = recorder.count()
        cluster.quiesce()
        counters = probe.layer_counters(ops)
        problems = _index_problems(cluster)
        if driver.failed:
            problems.append(f"{driver.failed} operations failed")
        regions = sum(len(infos) for infos in cluster.master.layout.values())
        if counters["lsm.flushes"] < self.min_flushes_per_region * regions:
            problems.append(
                f"{counters['lsm.flushes']:.0f} flushes over {regions} "
                f"regions; the run is too short for "
                f"{self.min_flushes_per_region} flushes per region")
        return Repetition(
            setup_s=0.0, host_s=clock.scaled_s, raw_host_s=clock.raw_s,
            sim_ms=self.duration_ms,
            attempted=driver.issued, failed=driver.failed,
            latencies=recorder, windows=windows, counters=counters,
            info=_sizes(cluster, probe), problems=problems)

    def _close_window(self, recorder: _WindowedRecorder,
                      windows: List[WindowReport], index: int,
                      start: float) -> None:
        begin = start + index * WINDOW_MS
        windows.append(recorder.window.freeze(
            index, begin, begin + WINDOW_MS, staleness_max_ms=0.0,
            offered_update_fraction=0.0, scheme=self.scheme))


@dataclasses.dataclass
class Storm(Workload):
    """An open-loop :mod:`repro.scenario` run: arrivals follow a fixed
    schedule in sim time whatever the completions, so the generator is
    never late; ops refused at the in-flight cap count as failed."""

    name: str
    spec: Callable[[], ScenarioSpec]
    nominal_s: float

    def setup(self, seed: int) -> ScenarioRunner:
        return ScenarioRunner(self.spec(), seed=seed)

    def drive(self, runner: ScenarioRunner, seed: int,
              profiler: Optional[cProfile.Profile]) -> Repetition:
        cluster = runner.cluster
        sim = cluster.sim
        spec = runner.spec
        recorder = LatencyRecorder()
        tally = {"failed": 0, "shed": 0}
        for state in runner.tenants.values():
            state.accumulator = _RecordingAccumulator(
                state.spec.slo, recorder, tally)
        probe = CounterProbe(cluster)
        start = sim.now()
        end = start + spec.duration_ms
        at = start + LAG_SAMPLE_MS
        while at < end:
            sim.call_at(at, probe.sample_replication_lag)
            at += LAG_SAMPLE_MS
        clock = SpeedProbe(enabled=profiler is None)
        ops = {}

        def horizon() -> None:
            # Stop the clocks when the horizon is reached: quiesce and
            # the durability audit that follow are not the driven phase.
            if profiler is not None:
                profiler.disable()
            clock.stop()
            ops["completed"] = recorder.count()
            # Ops in flight at the horizon finish during quiesce: they
            # still count as attempted (and as failed if they fail), but
            # their latencies are not the driven phase's.
            recorder.recording = False
            probe.stop()

        sim.call_at(end, horizon)
        probe.start()
        clock.start()
        if profiler is not None:
            profiler.enable()
        report = runner.run()

        switches = sum(len(t.switches) for t in report.tenants.values())
        counters = probe.layer_counters(ops["completed"], switches)
        problems = _index_problems(cluster)
        for name, tenant in sorted(report.tenants.items()):
            if tenant.acked_write_loss:
                problems.append(f"tenant {name}: {tenant.acked_write_loss} "
                                "acked writes lost")
        if report.stale_served:
            problems.append(f"{report.stale_served} stale index hits served")
        applied = [e for e in report.storm_log if e.get("applied")]
        if len(applied) != len(spec.storm):
            problems.append(f"{len(applied)} of {len(spec.storm)} storm "
                            "events applied")
        attempted = sum(t.issued for t in report.tenants.values()) \
            + tally["shed"]
        windows = [w for t in report.tenants.values() for w in t.windows]
        return Repetition(
            setup_s=0.0, host_s=clock.scaled_s, raw_host_s=clock.raw_s,
            sim_ms=spec.duration_ms,
            attempted=attempted, failed=tally["failed"] + tally["shed"],
            latencies=recorder, windows=windows, counters=counters,
            info=_sizes(cluster, probe), problems=problems)


def storm_spec() -> ScenarioSpec:
    """``failure_storm`` at full size with a 3x longer horizon and its
    storm schedule stretched to match: over 1000 index reads per
    repetition, and a WAL tail long enough for replication shipping to
    show its cost."""
    base = failure_storm(quick=False)
    stretch = 3.0
    return dataclasses.replace(
        base, name="storm_rf3", duration_ms=base.duration_ms * stretch,
        storm=tuple(dataclasses.replace(event, at_ms=event.at_ms * stretch)
                    for event in base.storm))


# Why each workload exists, with its sizes, is in BENCHMARK.json and
# README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # The foreground index-maintenance write path; the data fits the
    # cache.  15 sim-s give every region two flushes.
    ClosedLoop(
        name="write_sync_full",
        rows=4000, titles=800, scheme="full", cache_bytes=4 * 1024 * 1024,
        mix={"update": 0.9, "index_read": 0.1}, distribution="uniform",
        slo=SloSpec(read_p95_ms=35.0, update_p95_ms=40.0),
        warmup_ms=1000.0, duration_ms=15000.0, nominal_s=20.0,
        min_flushes_per_region=2),
    # The sync-insert read path on data about 10x the cache.  Its update
    # latencies vary more between histories than within one, so a run
    # pools three short repetitions rather than one long one.
    ClosedLoop(
        name="read_sync_insert_zipf",
        rows=8000, titles=1600, scheme="insert", cache_bytes=256 * 1024,
        mix={"index_read": 0.95, "update": 0.05}, distribution="zipfian",
        slo=SloSpec(read_p95_ms=150.0, update_p95_ms=60.0),
        warmup_ms=1000.0, duration_ms=20000.0, nominal_s=6.5),
    # The only load on replication, promotion, the AUQ/APS background
    # path, online ALTER and repro.scenario.  Three repetitions per
    # 20-second run: with two, its host metrics spread the most.
    Storm(name="storm_rf3", spec=storm_spec, nominal_s=6.5),
)}
