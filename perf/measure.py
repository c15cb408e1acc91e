"""Turn what the loops observed into the end-to-end metrics.

A closed loop's timed phase is cut into slices, each with a reading of
the host's speed (:mod:`perf.hostref`); every metric is computed per
slice, taken at the slice's speed, and reported as the median over the
slices. The raw values are returned alongside under ``raw``, and the
quartile spread of the per-slice values under ``spread`` (``compare.py``
uses it to call a change unresolved instead of a regression). The open
loop is raw.
"""

from __future__ import annotations

import resource
import statistics
from typing import Sequence

from perf import config
from perf.loadgen import OpenTally, Slice, Tally

US = 1e6

#: the end-to-end metrics every workload reports (name -> unit); must match
#: BENCHMARK.json, which also fixes each one's direction and bound
END_TO_END = {
    "setup_s": "s",
    "qps": "1/s",
    "lat_p50_us": "us",
    "write_p50_us": "us",
    "tuples_per_req": "count",
    "ok_share": "share",
    "peak_rss_mb": "MB",
}
_TIMED = (("lat_p50_us", 0.50), ("lat_p95_us", 0.95), ("lat_p99_us", 0.99))

#: the per-layer metrics of the traced run (name -> unit); the prefix is
#: the src/repro/ module the number belongs to (loadgen.* is this harness)
PER_LAYER = {
    "sql.parse_us": "us",
    "sql.fingerprint_us": "us",
    "sql.normalize_us": "us",
    "beas.bind_us": "us",
    "beas.facade_overhead_us": "us",
    "bounded.check_us": "us",
    "bounded.rebind_us": "us",
    "bounded.execute_us": "us",
    "bounded.fetch_ops_per_req": "count",
    "bounded.bound_slack": "ratio",
    "access.fetch_us": "us",
    "access.tuples_per_fetch": "count",
    "access.index_build_s": "s",
    "engine.tuples_per_req": "count",
    "engine.columnar_execute_us": "us",
    "engine.tail_us": "us",
    "engine.conventional_ms": "ms",
    "engine.pool_plan_us": "us",
    "engine.pool_wait_us": "us",
    "engine.pool_fallbacks": "count",
    "engine.router_explore_share": "ratio",
    "serving.result_hit_ratio": "ratio",
    "serving.decision_hit_ratio": "ratio",
    "serving.parse_hit_ratio": "ratio",
    "serving.lat_p95_us": "us",
    "serving.lat_p99_us": "us",
    "serving.hit_serve_us": "us",
    "serving.miss_serve_us": "us",
    "serving.rebinds_per_req": "count",
    "serving.checker_runs": "count",
    "serving.lock_wait_share": "ratio",
    "serving.admission_declines": "count",
    "serving.async_peak_in_flight": "count",
    "serving.async_max_rate_ok": "1/s",
    "maintenance.insert_us_per_row": "us",
    "maintenance.delete_us_per_row": "us",
    "maintenance.invalidations_per_batch": "count",
    "storage.wal_append_us": "us",
    "storage.wal_bytes_per_row": "B",
    "storage.checkpoint_s": "s",
    "storage.warm_restart_s": "s",
    "storage.bytes_per_user_byte": "ratio",
    "distributed.fleet_plan_us": "us",
    "distributed.wire_us": "us",
    "distributed.bytes_per_req": "B",
    "distributed.failovers": "count",
    "workloads.generate_s": "s",
    "loadgen.late_p99_us": "us",
    "loadgen.trace_overhead_share": "ratio",
    "loadgen.host_speed": "ratio",
}


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an unsorted sample."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    """The resident set right now (Linux: the benchmark host's kernel)."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * resource.getpagesize() / 2**20


def _spread(values: Sequence[float]) -> float:
    """Quartile spread of per-slice values as a share of their median: how
    unsteady the run itself was."""
    if len(values) < 4:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def _per_slice(slices: Sequence[Slice], scaled: bool) -> dict[str, list[float]]:
    """Each timing metric slice by slice, taken at the slice's host speed
    when ``scaled``."""
    out: dict[str, list[float]] = {"qps": []}
    for piece in slices:
        speed = piece.speed if scaled else 1.0
        out["qps"].append(piece.ops / (piece.elapsed * speed))
        if piece.reads:  # a quick-mode slice can be one long write
            for name, share in _TIMED:
                out.setdefault(name, []).append(
                    percentile(piece.reads, share) * speed * US
                )
        if piece.writes:
            out.setdefault("write_p50_us", []).append(
                statistics.median(piece.writes) * speed * US
            )
    return out


def closed_loop(tally: Tally) -> dict:
    """qps, lat_p50/p95/p99_us and write_p50_us of a closed-loop workload:
    the median over the timed slices of the slice's value at nominal host
    speed. Alongside: the same from raw wall clock, and the slice-to-slice
    spread of the scaled values."""
    per_slice = _per_slice(tally.slices, scaled=True)
    metrics = {name: statistics.median(values) for name, values in per_slice.items()}
    metrics.setdefault("write_p50_us", 0.0)  # the traced run has no write probe
    raw = {
        name: statistics.median(values)
        for name, values in _per_slice(tally.slices, scaled=False).items()
    }
    raw["host_speed"] = statistics.median(piece.speed for piece in tally.slices)
    return {
        "metrics": metrics,
        "raw": raw,
        "spread": {name: _spread(values) for name, values in per_slice.items()},
        "samples": {
            "reads": sum(len(p.reads) for p in tally.slices),
            "writes": sum(len(p.writes) for p in tally.slices),
            "slices": len(tally.slices),
        },
    }


def open_loop(
    tally: OpenTally, steps: Sequence[tuple[float, float, float]], slice_seconds: float
) -> dict:
    """The same metrics for the open loop, all RAW: generator and worker
    share the interpreter lock, so no host-speed reading taken while they
    run would be the host's alone. Latency runs from each request's DUE
    time and is pooled over the ladder's latency step, as is the median
    write; throughput is completions per second inside the overload
    step's window. The readings before and after are under ``raw``."""
    table = step_table(tally, steps)
    row = table[config.HERD_LATENCY_STEP]
    metrics = {"qps": table[config.HERD_OVERLOAD_STEP]["completed_per_s"]}
    for name, share in _TIMED:
        metrics[name] = percentile(row["read_lat"], share) * US
    metrics["write_p50_us"] = (
        statistics.median(row["write_lat"]) * US if row["write_lat"] else 0.0
    )
    per_slice: dict[str, list[float]] = {}
    start, end, _ = steps[config.HERD_LATENCY_STEP]
    for low, high in _windows(start, end, slice_seconds):
        reads = [s[4] - s[2] for s in tally.samples if s[1] and low <= s[2] < high]
        if reads:
            for name, share in _TIMED:
                per_slice.setdefault(name, []).append(percentile(reads, share) * US)
    start, end, _ = steps[config.HERD_OVERLOAD_STEP]
    per_slice["qps"] = [
        sum(1 for s in tally.samples if low <= s[4] < high) / (high - low)
        for low, high in _windows(start, end, slice_seconds)
    ]
    return {
        "metrics": metrics,
        "raw": {**metrics, "host_speed": tally.speed},
        "spread": {name: _spread(values) for name, values in per_slice.items()},
        "samples": {
            "reads": len(row["read_lat"]),
            "writes": len(row["write_lat"]),
            "slices": len(per_slice["qps"]),
        },
        "steps": [
            {k: v for k, v in row.items() if k not in ("read_lat", "write_lat", "late")}
            for row in table
        ],
    }


def _windows(start: float, end: float, width: float) -> list[tuple[float, float]]:
    count = max(1, round((end - start) / width))
    width = (end - start) / count
    return [(start + i * width, start + (i + 1) * width) for i in range(count)]


def step_table(tally: OpenTally, steps: Sequence[tuple[float, float, float]]) -> list[dict]:
    """Per ladder step: rate, samples from due time, generator lateness,
    completions inside the window, and the backlog at mid-step and end."""
    table = []
    for index, (start, end, rate) in enumerate(steps):
        mine = [s for s in tally.samples if s[0] == index]
        middle = (start + end) / 2
        row = {
            "rate": rate,
            "issued": len(mine),
            "read_lat": [s[4] - s[2] for s in mine if s[1]],
            "write_lat": [s[4] - s[2] for s in mine if not s[1]],
            "late": [max(0.0, s[3] - s[2]) for s in mine],
            "completed_per_s": sum(
                1 for s in tally.samples if start <= s[4] < end
            ) / (end - start),
            "backlog_mid": sum(
                1 for s in tally.samples if s[3] < middle <= s[4]
            ),
            "backlog_end": sum(1 for s in tally.samples if s[3] < end <= s[4]),
        }
        if row["read_lat"]:
            row["p50_us"] = percentile(row["read_lat"], 0.50) * US
            row["p99_us"] = percentile(row["read_lat"], 0.99) * US
            row["late_p99_us"] = percentile(row["late"], 0.99) * US
        table.append(row)
    return table
