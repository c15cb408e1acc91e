"""A reference kernel that reads the benchmark host's speed.

The benchmark host is a shared 2-vCPU VM. Its single-thread speed moves
by 25-40 % between phases that last from seconds to minutes (CPU time
tracks wall time and steal is nil, so it is the core that slows, not the
scheduler that takes it away): ten runs of one commit then spread by
15-40 % on raw wall clock, and no estimator inside a run removes a phase
that outlasts the run (perf/README.md has the numbers). So the closed
loops stop between their timed slices, run this fixed pure-Python kernel
back to back for ~12 ms, and scale each slice's timings to the host's
nominal speed:

    speed      = REF_NOMINAL_US / median(kernel call time)
    latency    = measured latency * speed
    throughput = measured throughput / speed

A reading is taken while nothing else in the process runs, and its median
call comes long after the first calls have pulled the kernel back into
the cache, so neither the program's threads nor its memory footprint
reach it. The open loop is not scaled: its readings before and after the
schedule are reported next to its raw numbers. Raw values and the speed
are kept in every result under ``raw``.
"""

from __future__ import annotations

import statistics
import time

clock = time.perf_counter

#: kernel call time on the benchmark host at its nominal speed (the lower
#: decile over a quiet minute: 2 vCPUs, CPython 3.11), frozen: it only sets
#: the scale the scaled numbers are read on
REF_NOMINAL_US = 83.0
READING_CALLS = 150  # ~12 ms per reading


class _Cell:
    __slots__ = ("value", "key")

    def __init__(self, value, key):
        self.value = value
        self.key = key

    def get(self):
        return self.value


def kernel(rounds: int = 150):
    """What the serving path does: dict probes, tuple builds, attribute
    loads, method calls, a sort."""
    table = {}
    total = 0
    out = []
    for i in range(rounds):
        key = ("k", i & 31, str(i & 7))
        table[key] = _Cell(i, key)
        total += table[key].get()
        out.append((total, key))
    return sorted(out, key=lambda item: item[1])[0]


def read_speed(calls: int = READING_CALLS) -> float:
    """Host speed relative to nominal right now (1.0 = nominal, below 1.0 =
    the host runs slow)."""
    times = []
    for _ in range(calls):
        start = clock()
        kernel()
        times.append(clock() - start)
    return REF_NOMINAL_US / (statistics.median(times) * 1e6)
