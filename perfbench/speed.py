"""Host CPU time scaled to a reference host speed.

On a VM that shares its physical cores, the same pure-Python work can
take up to twice as long in one second as in the next, and the host's
speed drifts over minutes; CPU time alone then spreads more between
runs than any change worth measuring.  So while a timed section runs, a
profiling timer interrupts it every ``INTERVAL_S`` CPU seconds to time a
fixed reference chunk of work.  Each stretch of the program's CPU time
between two chunks is scaled by ``REFERENCE_CHUNK_S`` over the median
chunk time around it: the result is the CPU time the section would have
taken on a host running the chunk at its reference speed.  The chunks'
own time is not part of the section's.

The chunk does what the program does most: heap pushes and pops of
tuples, string and bytes keys, dict updates and generator resumption.
The garbage collector is paused while it runs, so the chunk never starts
a collection of the program's objects.

Times are taken from the thread CPU clock.  While a process-wide CPU
timer is armed the kernel may advance the process CPU clock only at
timer ticks; the program runs on one thread, so the two clocks agree
otherwise.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from typing import List

__all__ = ["SpeedProbe", "reference_chunk", "cpu_time"]

cpu_time = time.thread_time

# CPU seconds between two reference chunks.
INTERVAL_S = 0.02
# A stretch is scaled by the median over this many chunks either side of
# it: about one CPU second, shorter than the host's drift.
WINDOW = 50
# The chunk's median CPU time on a calm 2-vCPU Xeon VM at 2.0 GHz, so a
# scaled second reads close to a CPU second on such a host.
REFERENCE_CHUNK_S = 0.00085


def _process(store, n):
    for i in range(n):
        key = b"k%05d" % (i * 31 % 997)
        store[key] = store.get(key, 0) + 1
        yield i


def reference_chunk() -> int:
    """A fixed amount of work, the same on every call."""
    heap = []
    push, pop = heapq.heappush, heapq.heappop
    for i in range(600):
        push(heap, (((i * 7919) % 1000) / 1000.0, i, str(i)))
    while heap:
        pop(heap)
    store = {}
    queue = [(0.0, i, _process(store, 40)) for i in range(8)]
    seq = len(queue)
    while queue:
        when, _, proc = pop(queue)
        try:
            step = next(proc)
        except StopIteration:
            continue
        seq += 1
        push(queue, (when + (step % 7) * 0.5, seq, proc))
    return len(store)


class SpeedProbe:
    """Times one section of the program between :meth:`start` and
    :meth:`stop`.  With ``enabled`` false it only reads the CPU clock
    (profiled runs: the profiler would time the chunks too)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        # CPU seconds of the program before each chunk, and after the
        # last one; and each chunk's CPU seconds.
        self.stretches: List[float] = []
        self.chunks: List[float] = []
        self._last = 0.0
        self._previous_handler = None

    def start(self) -> "SpeedProbe":
        self._last = cpu_time()
        if self.enabled:
            self._previous_handler = signal.signal(signal.SIGPROF,
                                                   self._tick)
            self._tick()
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        end = cpu_time()
        if self.enabled:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, self._previous_handler)
        self.stretches.append(end - self._last)

    def _tick(self, _signum=None, _frame=None) -> None:
        before = cpu_time()
        collecting = gc.isenabled()
        gc.disable()
        reference_chunk()
        if collecting:
            gc.enable()
        after = cpu_time()
        self.stretches.append(before - self._last)
        self.chunks.append(after - before)
        self._last = after

    @property
    def raw_s(self) -> float:
        """The section's CPU seconds, the chunks' excluded."""
        return sum(self.stretches)

    @property
    def scaled_s(self) -> float:
        """The section's CPU seconds at the reference speed; the raw
        seconds when the probe is disabled."""
        chunks = self.chunks
        if not chunks:
            return self.raw_s
        total = 0.0
        for i, stretch in enumerate(self.stretches):
            # Stretch i ends at chunk i (the last one at stop).
            at = min(i, len(chunks) - 1)
            around = chunks[max(0, at - WINDOW):at + WINDOW + 1]
            total += stretch * REFERENCE_CHUNK_S / statistics.median(around)
        return total
