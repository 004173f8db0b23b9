"""Host-time rollup of a cProfile run into the repository's layers.

A *layer* is one of the nine named packages of ``repro`` or one of the
modules an open ROADMAP item or a measured hotspot points at.  Every
module of ``repro`` appears in :data:`MODULE_LAYER` exactly once, mapped
to its package layer or to ``None`` (outside every named layer).  The
profile is attributed like this:

* a Python function's self time and calls go to its module's layer, and
  to the module layer too when the module is one of :data:`MODULE_LAYERS`;
* a C builtin has no module, so its self time and calls are split over
  its callers, edge by edge, and charged to each caller's layer;
* everything else (the standard library's Python code, this benchmark,
  packages of ``repro`` that are not named) is *outside*, and
  :func:`rollup` reports its share of the profiled self time.

A ``repro`` module that executed but is missing from the table is named
in :attr:`Rollup.unmapped` and counted outside, so a module added later
shows up instead of silently moving time between layers.
"""

from __future__ import annotations

import dataclasses
import os
import pstats
from typing import Dict, List, Optional, Tuple

import repro

# Package layer -> its modules, as they exist in src/repro.  ``None``
# collects the packages no layer metric names.
_PACKAGES: Dict[Optional[str], Dict[str, Tuple[str, ...]]] = {
    "sim": {"sim": ("__init__", "kernel", "latency", "random", "resources",
                    "scatter")},
    "cluster": {"cluster": ("__init__", "client", "cluster", "coordinator",
                            "counters", "hdfs", "master", "network",
                            "recovery", "region", "server", "table")},
    "core": {"core": ("__init__", "adaptive", "auq", "coprocessor", "dense",
                      "encoding", "index", "local", "maintenance",
                      "observers", "reader", "schemes", "session",
                      "staleness", "verify")},
    "lsm": {"lsm": ("__init__", "arraymap", "bloom", "cache", "compaction",
                    "iterators", "learned", "memtable", "policy", "remix",
                    "skiplist", "sstable", "tree", "types", "wal")},
    "obs": {"obs": ("__init__", "metrics", "tracing")},
    "ycsb": {"ycsb": ("__init__", "__main__", "distributions", "driver",
                      "schema", "stats", "workload")},
    "scenario": {"scenario": ("__init__", "__main__", "arrival", "bench",
                              "report", "runner", "scenarios", "slo",
                              "spec")},
    "replication": {"replication": ("__init__", "config", "promote",
                                    "replica", "ship")},
    "ddl": {"ddl": ("__init__", "catalog", "jobs", "manager")},
    None: {
        "": ("__init__", "errors"),
        "bench": ("__init__", "__main__", "experiments", "harness", "perf",
                  "profiling", "report"),
        "btree": ("__init__", "btree"),
        "placement": ("__init__", "jobs", "manager"),
        "query": ("__init__", "executor", "planner", "predicates"),
        "validation": ("__init__", "cleaner"),
    },
}

#: Every ``repro`` module -> its package layer (``None``: outside).
MODULE_LAYER: Dict[str, Optional[str]] = {
    "repro" + (f".{package}" if package else "") + f".{module}": layer
    for layer, packages in _PACKAGES.items()
    for package, modules in packages.items()
    for module in modules
}

#: The package layers, in report order.
PACKAGE_LAYERS: Tuple[str, ...] = tuple(
    layer for layer in _PACKAGES if layer is not None)

#: Single modules reported as layers of their own (within their package).
MODULE_LAYERS: Tuple[str, ...] = (
    "sim.kernel", "sim.scatter", "cluster.server", "cluster.network",
    "core.auq", "core.reader", "lsm.sstable", "lsm.learned", "lsm.remix",
    "obs.tracing", "obs.metrics", "replication.ship")

LAYERS: Tuple[str, ...] = PACKAGE_LAYERS + MODULE_LAYERS

_BUILTIN_FILE = "~"
_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def module_of(filename: str) -> Optional[str]:
    """``<src>/repro/sim/kernel.py`` -> ``repro.sim.kernel``; ``None``
    for code outside the imported ``repro`` package."""
    path = os.path.abspath(filename)
    if not (path.startswith(_PACKAGE_DIR + os.sep) and path.endswith(".py")):
        return None
    rel = os.path.relpath(path, os.path.dirname(_PACKAGE_DIR))
    return rel[:-len(".py")].replace(os.sep, ".")


@dataclasses.dataclass
class Rollup:
    """Self seconds and calls per layer, plus what fell outside."""

    self_s: Dict[str, float]
    calls: Dict[str, int]
    total_self_s: float
    outside_self_s: float
    unmapped: List[str]

    @property
    def outside_frac(self) -> float:
        if not self.total_self_s:
            return 0.0
        return self.outside_self_s / self.total_self_s


def _layers_of(module: Optional[str]) -> Tuple[str, ...]:
    """The layers one module's work is charged to (empty: outside)."""
    if module is None:
        return ()
    package = MODULE_LAYER.get(module)
    if package is None:
        return ()
    short = module[len("repro."):]
    return (package, short) if short in MODULE_LAYERS else (package,)


def rollup(stats: pstats.Stats) -> Rollup:
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    total = outside = 0.0
    unmapped = set()

    def charge(module: Optional[str], seconds: float, n: int) -> None:
        nonlocal outside
        layers = _layers_of(module)
        if not layers:
            outside += seconds
            if module is not None and module not in MODULE_LAYER:
                unmapped.add(module)
        for layer in layers:
            self_s[layer] += seconds
            calls[layer] += n

    for (filename, _line, _name), (_cc, nc, tt, _ct, callers) in \
            stats.stats.items():
        total += tt
        if filename != _BUILTIN_FILE:
            charge(module_of(filename), tt, nc)
            continue
        # A builtin: charge each caller edge's share to the caller's layer.
        charged = 0.0
        for (caller_file, _l, _n), edge in callers.items():
            edge_nc, edge_tt = edge[1], edge[2]
            charge(module_of(caller_file), edge_tt, edge_nc)
            charged += edge_tt
        if not callers:
            charge(None, tt, nc)
        elif tt > charged:
            charge(None, tt - charged, 0)   # rounding; no caller owns it
    return Rollup(self_s, calls, total, outside, sorted(unmapped))
