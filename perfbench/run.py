#!/usr/bin/env python3
"""The repository benchmark: one workload per process, or all of them.

    python3 perfbench/run.py --workload write_sync_full --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with profiling
off; ``--trace 1`` prints the per-layer metrics of a profiled run of the
same seed next to an unprofiled one.  ``--all`` runs every workload in a
fresh process.  Each metric is printed on its own line with its unit and
sample count; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
failed correctness check is printed to standard error and the process
exits with status 1 without a result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")

# Set-up is timed this many times per run; setup_s is the median.
SETUP_SAMPLES = 5


def declared_units(kind: str) -> Dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares ``kind``
    (``end_to_end`` or ``per_layer``)."""
    with open(BENCHMARK, encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _emit(kind: str, metrics: Dict[str, float], samples: Dict[str, int],
          attempted: int, failed: int) -> None:
    units = declared_units(kind)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"measured {kind} metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}")
    for name, value in metrics.items():
        print(f"{name:<40} {value:>14.6g} {units[name]:<8} "
              f"n={samples.get(name, 1)}")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))


def _fail(workload: str, problems: List[str]) -> int:
    for problem in problems:
        print(f"{workload}: check failed: {problem}", file=sys.stderr)
    return 1


def _sample_problems(reps) -> List[str]:
    from workloads import MIN_TAIL_SAMPLES, sample_counts
    counts = sample_counts(reps)
    return [f"only {counts[kind]} {kind} samples for a p95 "
            f"(need {MIN_TAIL_SAMPLES})" for kind in ("update", "read")
            if counts[kind] < MIN_TAIL_SAMPLES]


def _sim_results(rep) -> Dict[str, float]:
    from workloads import sim_metrics
    return {**sim_metrics([rep]), **rep.counters,
            "attempted": rep.attempted, "failed": rep.failed}


def run_untraced(workload, seed: int, seconds: float) -> int:
    from workloads import sample_counts, sim_metrics

    # The repetition count follows from --seconds and the workload's
    # nominal cost, never from measured speed, so every run of one
    # command pools the same histories.  Repetition i has its own seed,
    # so the pooled sim metrics average over independent histories.
    count = max(1, int(seconds // workload.nominal_s))
    reps = []
    for i in range(count):
        gc.collect()
        reps.append(workload.repetition(seed * count + i))
    setups = [rep.setup_s for rep in reps]
    while len(setups) < SETUP_SAMPLES:
        gc.collect()
        setups.append(workload.setup_seconds(seed * count))

    problems = [p for rep in reps for p in rep.problems]
    problems += _sample_problems(reps)
    if problems:
        return _fail(workload.name, problems)

    # Host metrics pool the repetitions' scaled CPU seconds (speed.py).
    host_s = sum(rep.host_s for rep in reps)
    completed = sum(rep.completed for rep in reps)
    sim_s = sum(rep.sim_ms for rep in reps) / 1000.0
    metrics = {
        "host_ops_per_s": completed / host_s,
        "host_s_per_sim_s": host_s / sim_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(sim_metrics(reps))
    counts = sample_counts(reps)
    attempted = sum(rep.attempted for rep in reps)
    samples = {"host_ops_per_s": len(reps), "host_s_per_sim_s": len(reps),
               "setup_s": len(setups), "ok_frac": attempted,
               "sim_ops_per_s": sum(rep.completed for rep in reps),
               "sim_update_p50_ms": counts["update"],
               "sim_update_p95_ms": counts["update"],
               "sim_read_p50_ms": counts["read"],
               "sim_read_p95_ms": counts["read"],
               "slo_windows_met_frac": counts["windows"]}
    first = reps[0]
    print(f"# {workload.name} seed={seed}: {len(reps)} repetition(s) of "
          f"{first.sim_ms / 1000.0:g} sim-s; base tables "
          f"{first.info['live_bytes'] / 2**20:.2f} MB live, "
          f"{first.info['stored_bytes'] / 2**20:.2f} MB stored; cache "
          f"{first.info['cache_bytes'] / 2**20:.2f} MB, hit rate "
          f"{first.counters['lsm.block_cache_hit_rate']:.3f}, "
          f"{first.counters['lsm.flushes']:.0f} flushes in the first; "
          f"{host_s:.2f} scaled / "
          f"{sum(rep.raw_host_s for rep in reps):.2f} raw CPU s driven")
    _emit("end_to_end", metrics, samples, attempted,
          sum(rep.failed for rep in reps))
    return 0


def run_traced(workload, seed: int) -> int:
    from layers import LAYERS, rollup

    gc.collect()
    untraced = workload.repetition(seed)
    gc.collect()
    profiler = cProfile.Profile()
    traced = workload.repetition(seed, profiler)
    problems = untraced.problems + traced.problems
    ours, theirs = _sim_results(untraced), _sim_results(traced)
    differ = sorted(name for name in ours if ours[name] != theirs[name])
    if differ:
        problems.append("profiling changed sim-clock results: "
                        + ", ".join(differ))
    if problems:
        return _fail(workload.name, problems)

    ops = traced.completed
    result = rollup(pstats.Stats(profiler))
    if result.unmapped:
        print(f"{workload.name}: repro modules missing from the layer "
              f"table, counted as unattributed: {', '.join(result.unmapped)}",
              file=sys.stderr)
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"host.{layer}.self_us_per_op"] = (
            result.self_s[layer] * 1e6 / ops)
        metrics[f"host.{layer}.calls_per_op"] = result.calls[layer] / ops
    # Both in raw CPU seconds: the profiled repetition is not scaled.
    metrics["host.trace_overhead"] = (
        (untraced.completed / untraced.raw_host_s)
        / (traced.completed / traced.raw_host_s))
    metrics["host.unattributed_self_frac"] = result.outside_frac
    metrics.update(untraced.counters)
    print(f"# {workload.name} seed={seed}: profiled {ops} ops, "
          f"{result.total_self_s:.2f} s profiled self time")
    _emit("per_layer", metrics, {}, untraced.attempted + traced.attempted,
          untraced.failed + traced.failed)
    return 0


def run_all(names: List[str], seed: int, seconds: float, trace: int) -> int:
    """Every workload in a fresh process; non-zero if any fails."""
    status = 0
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with status {proc.returncode}",
                  file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    if status == 0:
        print(json.dumps(results))
    return status


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's source is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.all:
        return run_all(list(WORKLOADS), args.seed, args.seconds, args.trace)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.trace:
        return run_traced(workload, args.seed)
    return run_untraced(workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
