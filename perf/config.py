"""Frozen inputs of the benchmark: sizes, rates and the workload shapes.

Everything a later PR could be tempted to tune lives here, so a diff to
this file is a diff to the benchmark and is reviewed as one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
OUT_DIR = PERF_DIR / "out"

DATA_SEED = 42  # --seed never reaches the data, only bindings/order/arrivals
# tuples_per_req is counted on an op stream drawn with this seed, whatever
# --seed is, on a session of its own: a count that repeats exactly from
# run to run, so any change of it is a change of the program
COUNT_SEED = 12
WORKLOADS = ("bind_cold", "adhoc_hot", "maint_mix", "herd_open")
CLOSED_LOOPS = WORKLOADS[:3]


@dataclass(frozen=True)
class Sizes:
    """How much of everything one run does."""

    scale: int  # generate_tlc(scale, DATA_SEED)
    seconds: float  # default --seconds (== BENCHMARK.json run_seconds)
    slice_seconds: float  # the timed phase is cut into slices this long
    setup_repeats: int  # setup_s is the median of this many full set-ups
    # warm-up is a fixed op COUNT (not a duration), so that the cache state
    # at the start of the timed phase is a function of the seed alone
    warmup_ops: Mapping[str, int]
    count_ops: Mapping[str, int]  # length of the COUNT_SEED stream
    # closed loops cycle over a stream of this many ops (bind_cold and
    # maint_mix never wrap inside one run on the benchmark host); for
    # herd_open it is the warm-up, the rest of its stream is the schedule
    stream_ops: Mapping[str, int]
    verify_reads: int  # reads recomputed with ConventionalEngine afterwards
    write_probe_batches: int  # per timed slice of a workload without writes
    trace_sample: int  # requests replayed stage by stage under --trace
    alt_route_sample: int  # plans pushed through each off-default route


FULL = Sizes(
    scale=50,  # ~137k rows, ~56k distinct (pnum, date) call keys
    seconds=12.0,
    slice_seconds=0.5,
    setup_repeats=3,
    warmup_ops={
        "bind_cold": 1500, "adhoc_hot": 6000, "maint_mix": 300, "herd_open": 1500,
    },
    count_ops={
        "bind_cold": 6000, "adhoc_hot": 20_000, "maint_mix": 600, "herd_open": 3000,
    },
    stream_ops={
        "bind_cold": 120_000, "adhoc_hot": 50_000, "maint_mix": 40_000,
        "herd_open": 1500,
    },
    verify_reads=40,
    write_probe_batches=9,
    trace_sample=2000,
    alt_route_sample=100,
)

QUICK = Sizes(
    scale=3,
    seconds=0.2,
    slice_seconds=0.05,
    setup_repeats=1,
    warmup_ops=dict.fromkeys(WORKLOADS, 120),
    count_ops=dict.fromkeys(WORKLOADS, 80),
    stream_ops={**dict.fromkeys(CLOSED_LOOPS, 4000), "herd_open": 120},
    verify_reads=8,
    write_probe_batches=3,
    trace_sample=40,
    alt_route_sample=6,
)

TRACE_RUN_SHARE = 0.4  # of --seconds: the traced run's untraced stats run

# ---- workload shapes ------------------------------------------------------- #
# The default server splits its 512 result-cache entries over 13 table
# shards (39 each) and a query is cached on the shard of its first table,
# so four templates share `call` and four share `business`. 99 ranks are
# 9 keys per template and 36 on the busiest shard: the largest hot set
# that fits the cache the program actually has.
HOT_KEYS = 99  # adhoc_hot / herd_open hot set (Zipf ranks)
MAINT_KEYS = 2000  # maint_mix read set (Zipf ranks): ~50x a shard's budget
ZIPF_S = 1.1
WRITE_BATCH_ROWS = 8
WRITE_TABLES = ("call", "sms", "package")
# a delete costs O(rows of its table): 23 ms on call, 1.5 ms on package.
# One call delete holds herd_open's single worker for ~100 request times,
# so its tail would measure how many deletes fell into the step, not the
# front end; maint_mix keeps the call and sms writes and carries that cost.
# The read-only workloads' write probe uses the light table as well.
LIGHT_WRITE_TABLES = ("package",)
MAINT_WRITE_SHARE = 0.20
HERD_WRITE_SHARE = 0.05
NEW_ID_BASE = 100_000_000  # ids of benchmark-inserted rows start here
PROBE_ID_BASE = 200_000_000  # ... and the write probe's rows here

# ---- the open loop --------------------------------------------------------- #
# C, in requests per second: what Session.serve_async(max_workers=1)
# completes per second on the herd_open mix when it is overrun (herd_open's
# own `qps`), measured once on the benchmark host (2 vCPUs, CPython 3.11)
# and then frozen. The ladder below is in multiples of it.
HERD_C = 2000.0
HERD_LADDER = (0.25, 0.5, 0.75, 1.5)
# share of --seconds each step gets: the two steps the end-to-end metrics
# are read from get the time, the other two only rank the ladder
HERD_STEP_SHARE = (0.5, 0.125, 0.125, 0.25)
HERD_LATENCY_STEP = 0  # lat_* and write_p50_us are read on this step
HERD_OVERLOAD_STEP = 3  # qps is read on this step
