"""The benchmark's own tests: ``python -m pytest perfbench``.

They run each workload shrunk to a few simulated seconds, so they check
the benchmark's machinery, not the figures it reports at full size.
"""

import cProfile
import dataclasses
import json
import os
import pstats
import shutil
import signal
import statistics
import subprocess
import sys

import pytest

import layers
import run
import speed
import workloads
from repro.scenario.scenarios import failure_storm
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _small_storm():
    spec = failure_storm(quick=True)
    return dataclasses.replace(spec, duration_ms=2000.0,
                               storm=tuple(dataclasses.replace(
                                   e, at_ms=e.at_ms * 2 / 3)
                                   for e in spec.storm))


SMALL = {
    "write_sync_full": dataclasses.replace(
        WORKLOADS["write_sync_full"], rows=600, titles=120,
        warmup_ms=100.0, duration_ms=600.0,
        min_flushes_per_region=0),
    "read_sync_insert_zipf": dataclasses.replace(
        WORKLOADS["read_sync_insert_zipf"], rows=800, titles=160,
        warmup_ms=100.0, duration_ms=800.0),
    "storm_rf3": dataclasses.replace(WORKLOADS["storm_rf3"],
                                     spec=_small_storm),
}


def _sim(rep):
    return workloads.sim_metrics([rep]), rep.counters


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_sim_results_traced_or_not(name):
    workload = SMALL[name]
    untraced = workload.repetition(seed=5)
    traced = workload.repetition(seed=5, profiler=cProfile.Profile())
    assert untraced.problems == [] and traced.problems == []
    assert untraced.completed > 0
    assert _sim(untraced) == _sim(traced)
    assert untraced.attempted == traced.attempted
    assert untraced.failed == traced.failed


@pytest.mark.parametrize("name", sorted(SMALL))
def test_another_seed_changes_sim_results(name):
    workload = SMALL[name]
    first, second = workload.repetition(seed=5), workload.repetition(seed=6)
    assert (workloads.sim_metrics([first])
            != workloads.sim_metrics([second]))
    assert first.counters != second.counters


def test_every_full_size_workload_is_registered():
    assert sorted(WORKLOADS) == sorted(SMALL)
    storm = WORKLOADS["storm_rf3"].spec()
    assert storm.replication_factor == 3 and storm.num_servers == 5
    assert {e.kind for e in storm.storm} == {"kill", "degrade",
                                             "fault_rate", "clear"}


def test_layer_table_lists_exactly_the_program_modules():
    on_disk = set()
    root = os.path.join(SRC, "repro")
    for folder, _dirs, files in os.walk(root):
        for filename in files:
            if filename.endswith(".py"):
                rel = os.path.relpath(os.path.join(folder, filename), SRC)
                on_disk.add(rel[:-len(".py")].replace(os.sep, "."))
    assert on_disk == set(layers.MODULE_LAYER)
    for layer in layers.MODULE_LAYERS:
        package = layer.split(".")[0]
        assert layers.MODULE_LAYER[f"repro.{layer}"] == package


def test_rollup_charges_builtins_to_their_callers_layer():
    from repro.sim.kernel import Simulator

    sim = Simulator()
    profiler = cProfile.Profile()
    profiler.enable()
    for i in range(200):
        sim.call_at(float(i), len, ())   # heappush is charged to sim.kernel
    sim.run()
    profiler.disable()
    result = layers.rollup(pstats.Stats(profiler))
    assert result.unmapped == []
    assert result.calls["sim.kernel"] >= 400   # call_at + heappush each
    assert result.self_s["sim"] >= result.self_s["sim.kernel"] > 0
    assert 0.0 <= result.outside_frac < 1.0


def test_profiled_workload_has_no_unmapped_modules():
    profiler = cProfile.Profile()
    SMALL["storm_rf3"].repetition(seed=5, profiler=profiler)
    result = layers.rollup(pstats.Stats(profiler))
    assert result.unmapped == []
    assert result.self_s["replication.ship"] > 0


def _busy(seconds):
    deadline = speed.cpu_time() + seconds
    while speed.cpu_time() < deadline:
        pass


def test_speed_probe_scales_cpu_time_by_the_reference_chunk():
    handler = signal.getsignal(signal.SIGPROF)
    clock = speed.SpeedProbe().start()
    _busy(0.3)
    clock.stop()
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(clock.chunks) >= 5
    assert len(clock.stretches) == len(clock.chunks) + 1
    # The chunks ran inside the busy loop, so they are not in raw_s.
    assert 0.2 < clock.raw_s <= 0.3
    # Each stretch is scaled by the chunks around it; on a host of even
    # speed that is the run's median chunk.
    expected = (clock.raw_s * speed.REFERENCE_CHUNK_S
                / statistics.median(clock.chunks))
    assert clock.scaled_s == pytest.approx(expected, rel=0.5)


def test_disabled_speed_probe_reports_raw_cpu_time():
    clock = speed.SpeedProbe(enabled=False).start()
    _busy(0.05)
    clock.stop()
    assert clock.chunks == []
    assert clock.scaled_s == clock.raw_s >= 0.05


def test_failed_check_exits_nonzero_without_a_result(monkeypatch, capsys):
    class Broken:
        missing = {b"row"}
        stale = set()

    monkeypatch.setattr(workloads, "check_index", lambda *_: Broken())
    assert run.run_untraced(SMALL["write_sync_full"], seed=5,
                            seconds=0.0) == 1
    captured = capsys.readouterr()
    assert "missing index entries" in captured.err
    assert '"correct"' not in captured.out


def test_result_line_has_every_end_to_end_metric(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "MIN_TAIL_SAMPLES", 1)
    assert run.run_untraced(SMALL["storm_rf3"], seed=5, seconds=0.0) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    units = run.declared_units("end_to_end")
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric == {"value": metric["value"], "unit": units[name]}
        assert metric["value"] > 0
    for name in units:   # one printed line per metric
        assert any(line.startswith(name + " ") for line in lines)


def test_traced_run_reports_every_per_layer_metric(capsys):
    assert run.run_traced(SMALL["storm_rf3"], seed=5) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result["metrics"]) == set(run.declared_units("per_layer"))
    assert result["metrics"]["host.replication.ship.calls_per_op"][
        "value"] > 0


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "storm_rf3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
