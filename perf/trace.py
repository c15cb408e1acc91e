"""The traced run: every layer measured from outside, one span per call.

Nothing under ``src/`` carries spans yet (ROADMAP item 4), so the per-layer
numbers come from three places, all outside the program:

1. **Public stats deltas** over an untraced run of the workload on a
   ``Session`` (``Session.stats()`` before and after).
2. **A hand replay**: a window of the op stream is executed twice, once for
   real on a twin ``Session`` (the ``request`` root span) and once stage by
   stage on a :class:`Shadow` — the serving path re-assembled from each
   module's public functions (parse, fingerprint, ``PreparedQuery.binding``,
   ``TableShard`` probe, ``RebindTemplate.rebind`` or
   ``BoundedEvaluabilityChecker.check``, ``BoundedPlanExecutor.execute``,
   admit; for writes ``MaintenanceManager`` and ``MmapStore.log_*``). Each
   call is a span; spans of one request share its id.
3. **Probes** of the routes that are off the default path (columnar,
   process pool, learned router, replica fleet, conventional engine) and of
   the store (checkpoint, warm restart), on a sample of the same ops.

Spans stay in memory and are written to ``perf/out/trace_<workload>.json``
when the run ends. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import json
import shutil
import statistics
import tempfile
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from repro import (
    ASCatalog,
    BEPlanOptimizer,
    BoundedEvaluabilityChecker,
    BoundedPlanExecutor,
    ConventionalEngine,
    ExecutionOptions,
    Session,
)
from repro.bounded.plan import BoundedPlan
from repro.bounded.rebind import RebindTemplate, build_rebind_template
from repro.maintenance.incremental import MaintenanceManager
from repro.serving.cache import approx_size
from repro.serving.prepared import PreparedQuery
from repro.serving.shard import StripedCache, TableShard
from repro.sql.fingerprint import statement_fingerprint, statement_tables
from repro.sql.normalize import normalize
from repro.sql.parser import parse
from repro.storage.codec import encode_row
from repro.storage.mmapstore import MmapStore
from repro.workloads.tlc import tlc_access_schema

from perf import config, harness, loadgen, measure
from perf.hostref import clock
from perf.measure import US

PARETO = 0.90  # the layer report lists spans until this share of self time
TOP_K = 8


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
class Recorder:
    """Spans in memory: (name, start, end, parent, request)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, self.request])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self) -> float:
        span = self.spans[self._stack.pop()]
        span[2] = clock()
        return span[2] - span[1]

    def add(self, name: str, start: float, seconds: float) -> None:
        """A child of the open span whose interval the program itself
        measured (``ExecutionMetrics.operations``)."""
        self.spans.append([name, start, start + seconds, self._stack[-1], self.request])

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus children."""
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += max(0.0, end - start - covered[index])
        return dict(totals)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                [
                    {"id": i, "name": n, "start": s, "end": e, "parent": p, "request": r}
                    for i, (n, s, e, p, r) in enumerate(self.spans)
                ],
                handle,
            )


def layer_report(recorder: Recorder) -> tuple[str, list[dict]]:
    """Spans ranked by self time, Pareto to 0.90, at most TOP_K rows.
    Harness spans (``request``, ``replay``) are left out of the ranking:
    their self time is this file's own bookkeeping."""
    totals = {
        name: seconds
        for name, seconds in recorder.self_times().items()
        if name not in ("request", "replay")
    }
    grand = sum(totals.values()) or 1.0
    rows = []
    running = 0.0
    for name, seconds in sorted(totals.items(), key=lambda item: -item[1]):
        durations = recorder.durations(name)
        running += seconds
        rows.append(
            {
                "span": name,
                "layer": name.split(".")[0],
                "calls": len(durations),
                "self_ms": seconds * 1e3,
                "share": seconds / grand,
                "cumulative": running / grand,
                "total_share": sum(durations) / grand,  # children included
            }
        )
        if running / grand >= PARETO or len(rows) == TOP_K:
            break
    lines = [
        f"{'span':28s} {'calls':>7s} {'self ms':>9s} {'share':>6s} {'cum':>6s} "
        f"{'incl.':>6s}"
    ]
    for row in rows:
        lines.append(
            f"{row['span']:28s} {row['calls']:7d} {row['self_ms']:9.2f} "
            f"{row['share']:6.1%} {row['cumulative']:6.1%} {row['total_share']:6.1%}"
        )
    return "\n".join(lines), rows


# --------------------------------------------------------------------------- #
# the shadow: the serving path assembled from the layers' public parts
# --------------------------------------------------------------------------- #
@dataclass
class _Entry:
    columns: list
    rows: list
    versions: dict


class Shadow:
    def __init__(self, database, templates, recorder: Recorder, store_dir: Optional[Path]):
        self.database = database
        self.recorder = recorder
        start = clock()
        self.catalog = ASCatalog(database, tlc_access_schema())
        self.index_build_s = clock() - start
        self.checker = BoundedEvaluabilityChecker(database.schema, self.catalog.schema)
        self.executor = BoundedPlanExecutor(self.catalog)
        self.optimizer = BEPlanOptimizer(self.catalog)
        self.maintenance = MaintenanceManager(self.catalog)
        # the default BEASServer's cache geometry
        shard_names = list(database.table_names) + ["__global__"]
        self.parse_cache = StripedCache("parse", max_entries=512, stripes=4)
        self.decisions = StripedCache("decision", max_entries=1024, stripes=8)
        self.shards = {
            name: TableShard(
                name,
                result_entries=max(8, 512 // len(shard_names)),
                result_bytes=max(1 << 16, (8 << 20) // len(shard_names)),
                sizeof=lambda e: approx_size(e.columns) + approx_size(e.rows),
            )
            for name in shard_names
        }
        # PreparedQuery only asks its server for `.database` (schema lookup)
        self.prepared = {
            name: PreparedQuery(self, parse(t.sql), t.sql) for name, t in templates.items()
        }
        self.store = None
        self.checkpoint_s = 0.0
        if store_dir is not None:
            self.store = MmapStore(store_dir)
            start = clock()
            self.store.checkpoint(self.catalog)
            self.checkpoint_s = clock() - start
        self.reset_counters()

    def reset_counters(self) -> None:
        """Per-read facts the metrics need, counted from the traced window
        on (the warm-up runs through the shadow too, to warm its caches)."""
        self.executed: list[tuple[float, int, int]] = []  # (seconds, fetched, bound)
        self.fetch_ops = 0
        self.reads = 0
        self.hits = 0
        self.rows_written = {"insert": 0, "delete": 0}
        self.write_seconds = {"insert": 0.0, "delete": 0.0}
        self.wal_bytes_before = self.store.wal_bytes_appended if self.store else 0

    @property
    def _generation(self) -> int:
        return self.catalog.schema_generation

    def _fresh(self, entry: _Entry) -> bool:
        table = self.database.table
        return all(table(name).version == v for name, v in entry.versions.items())

    def read(self, kind: str, target: str, payload, handle) -> list:
        rec = self.recorder
        self.reads += 1
        bound = None
        if kind == "sql":
            rec.open("serving.parse_probe")
            cached = self.parse_cache.get(payload)
            rec.close()
            if cached is None:
                rec.open("sql.parse")
                statement = parse(payload)
                rec.close()
                rec.open("sql.fingerprint")
                fingerprint = statement_fingerprint(statement)
                tables = statement_tables(statement)
                rec.close()
                self.parse_cache.put(payload, (statement, fingerprint, tables))
            else:
                statement, fingerprint, tables = cached
        else:
            rec.open("beas.bind")
            handle.bind(payload)
            rec.close()
            prepared = self.prepared[target]
            rec.open("serving.binding")
            bound = prepared.binding(payload)
            rec.close()
            fingerprint, tables, statement = bound.fingerprint, prepared.tables, None

        home = self.shards[min(tables)]
        rec.open("serving.result_probe")
        entry = home.lookup(fingerprint)
        fresh = entry is not None and self._fresh(entry)
        rec.close()
        if fresh:
            self.hits += 1
            rec.open("serving.hit_copy")
            rows = list(entry.rows)
            rec.close()
            return rows

        generation = self._generation
        rec.open("serving.decision_probe")
        decision = self.decisions.get((fingerprint, generation))
        pinned = None
        if decision is None and bound is not None:
            pinned = self.decisions.get(
                ("rebind", prepared.fingerprint, bound.signature, generation)
            )
        rec.close()
        if decision is None and isinstance(pinned, RebindTemplate):
            rec.open("bounded.rebind")
            decision = pinned.rebind(bound.overrides)
            rec.close()
        if decision is None:
            if statement is None:
                statement = bound.statement
            rec.open("bounded.check")
            decision = self.checker.check(statement)
            rec.close()
            if bound is not None:
                template = build_rebind_template(decision, bound.overrides)
                if template is not None:
                    self.decisions.put(
                        ("rebind", prepared.fingerprint, bound.signature, generation),
                        template,
                    )
        self.decisions.put((fingerprint, generation), decision)

        if decision.covered:
            start = clock()
            rec.open("bounded.execute")
            result = self.executor.execute(decision.plan)
            # the executor's own per-operation clock, laid end to end
            for op in result.metrics.operations:
                is_fetch = op.label.startswith("fetch")
                rec.add("access.fetch" if is_fetch else "engine.tail", start, op.seconds)
                start += op.seconds
                self.fetch_ops += is_fetch
            seconds = rec.close()
            if isinstance(decision.plan, BoundedPlan):
                self.executed.append(
                    (seconds, result.metrics.tuples_fetched, decision.access_bound)
                )
        else:
            if statement is None:
                statement = bound.statement
            rec.open("bounded.partial_analyze")
            partial = self.optimizer.analyze(statement)
            rec.close()
            rec.open("bounded.partial_execute")
            result = self.optimizer.execute(partial)
            rec.close()

        rec.open("serving.admit")
        versions = {name: self.database.table(name).version for name in tables}
        home.admit(fingerprint, _Entry(list(result.columns), list(result.rows), versions))
        rec.close()
        return result.rows

    def write(self, kind: str, table_name: str, rows) -> None:
        rec = self.recorder
        rec.open("maintenance.apply")
        if kind == "insert":
            self.maintenance.insert(table_name, rows)
        else:
            self.maintenance.delete(table_name, rows)
        self.write_seconds[kind] += rec.close()
        self.rows_written[kind] += len(rows)
        if self.store is not None:
            table = self.database.table(table_name)
            rec.open("storage.wal_append")
            if kind == "insert":
                self.store.log_insert(table, rows)
            else:
                self.store.log_delete(table, rows)
            rec.close()
        rec.open("serving.invalidate")
        for shard in self.shards.values():
            shard.invalidate_where(lambda _key, entry: table_name in entry.versions)
        rec.close()

    def close(self) -> None:
        if self.store is not None:
            self.store.close()


# --------------------------------------------------------------------------- #
# the traced run
# --------------------------------------------------------------------------- #
def _median_us(values: Sequence[float]) -> float:
    return statistics.median(values) * US if values else 0.0


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def stats_delta(bench: harness.Workload) -> tuple[dict, loadgen.Tally, float]:
    """Run the workload untraced on a fresh set-up and return the per-layer
    numbers public stats give, the loop's tally, and the mean untraced
    latency of the reads the replay will trace (same ops, same cache
    states, no spans: the other side of ``trace_overhead_share``)."""
    rig = bench.set_up()
    try:
        before = rig.session.stats()
        start = clock()
        bench.timed_phase(rig, write_probe=False)
        elapsed = clock() - start
        after = rig.session.stats()
    finally:
        bench.tear_down(rig)
    tally = rig.loop.tally

    def delta(cache: str, field: str) -> int:
        return getattr(getattr(after, cache), field) - getattr(getattr(before, cache), field)

    requests = after.executions - before.executions
    batches = sum(s.maintenance_batches for s in after.shards.values()) - sum(
        s.maintenance_batches for s in before.shards.values()
    )
    out = {
        "serving.result_hit_ratio": _ratio(delta("result", "hits"), delta("result", "misses")),
        "serving.decision_hit_ratio": _ratio(
            delta("decision", "hits"), delta("decision", "misses")
        ),
        "serving.parse_hit_ratio": _ratio(delta("parse", "hits"), delta("parse", "misses")),
        "serving.rebinds_per_req": (after.rebinds - before.rebinds) / max(requests, 1),
        "serving.checker_runs": float(after.checker_runs - before.checker_runs),
        "serving.lock_wait_share": (
            after.lock_wait_seconds - before.lock_wait_seconds
        ) / elapsed,
        "serving.admission_declines": float(
            after.admission_declines - before.admission_declines
        ),
        "maintenance.invalidations_per_batch": (
            delta("result", "invalidations") / batches if batches else 0.0
        ),
        "engine.tuples_per_req": tally.tuples / max(tally.reads, 1),
        "serving.async_peak_in_flight": 0.0,
        "serving.async_max_rate_ok": 0.0,
        "loadgen.late_p99_us": 0.0,
    }
    if bench.name == "herd_open":
        timed = measure.open_loop(tally, rig.loop.steps, bench.sizes.slice_seconds)
    else:
        timed = measure.closed_loop(tally)
    out["serving.lat_p95_us"] = timed["metrics"]["lat_p95_us"]
    out["serving.lat_p99_us"] = timed["metrics"]["lat_p99_us"]
    # per-layer times below are raw: this is the speed they were taken at
    out["loadgen.host_speed"] = timed["raw"]["host_speed"]
    if bench.name == "herd_open":
        table = timed["steps"]
        out["serving.async_peak_in_flight"] = float(tally.peak_in_flight)
        out["loadgen.late_p99_us"] = table[config.HERD_LATENCY_STEP]["late_p99_us"]
        floor = table[0]["p99_us"]
        for row in table:
            growing = row["backlog_end"] > max(2 * row["backlog_mid"], 0.01 * row["issued"])
            if row["p99_us"] < 10 * floor and not growing:
                out["serving.async_max_rate_ok"] = row["rate"]
        window_mean = _closed_window_mean(bench)
    else:
        reads = [lat for piece in tally.slices for lat in piece.reads]
        window_mean = statistics.fmean(reads[: bench.sizes.trace_sample])
    return out, tally, window_mean


def _closed_window_mean(bench: harness.Workload) -> float:
    """herd_open's untraced run is an open loop, whose latencies carry
    queueing; the replay is a closed loop. So its untraced side is one more
    closed pass over the traced window on a session of its own."""
    session = harness.open_session(
        bench.name, harness.clone_database(bench.dataset.database), None
    )
    try:
        window = loadgen.compile_ops(
            loadgen.prepare(session, bench.templates),
            bench.ops[: bench.warmup_ops + bench.sizes.trace_sample],
        )
        loop = loadgen.ClosedLoop(session, window)
        loop.warm_up(bench.warmup_ops)
        piece = loop.run_batch(window[bench.warmup_ops:])
    finally:
        session.close()
    return statistics.fmean(piece.reads)


def replay(bench: harness.Workload, recorder: Recorder) -> tuple[dict, Shadow, int, list]:
    """Execute a window of the stream for real (twin Session, ``request``
    spans) and by hand (Shadow, ``replay`` spans). Returns the per-layer
    numbers the spans give, the shadow, the number of reads whose two
    answers differ, and the traced read latencies."""
    sizes = bench.sizes
    store_dir = twin_dir = None
    if bench.name == "maint_mix":
        bench.out_dir.mkdir(parents=True, exist_ok=True)
        store_dir = Path(tempfile.mkdtemp(prefix="shadow-", dir=bench.out_dir))
        twin_dir = Path(tempfile.mkdtemp(prefix="twin-", dir=bench.out_dir))
    shadow = Shadow(
        harness.clone_database(bench.dataset.database), bench.templates, recorder, store_dir
    )
    twin = harness.open_session(
        bench.name, harness.clone_database(bench.dataset.database), twin_dir
    )
    mismatches = 0
    hit_us, miss_us, facade_us = [], [], []
    try:
        handles = loadgen.prepare(twin, bench.templates)
        # both sides see the same ops in the same order, warm-up included,
        # so their caches walk through the same states
        window = bench.ops[: bench.warmup_ops + sizes.trace_sample]
        for index, (kind, target, payload, _) in enumerate(window):
            traced = index >= bench.warmup_ops
            if index == bench.warmup_ops:
                shadow.reset_counters()
            recorder.request = index if traced else -1
            keep = len(recorder.spans)
            if kind in ("insert", "delete"):
                recorder.open("request")
                getattr(twin, kind)(target, payload)
                recorder.close()
                recorder.open("replay")
                shadow.write(kind, target, payload)
                recorder.close()
            else:
                handle = handles.get(target)
                executed_before = len(shadow.executed)
                recorder.open("request")
                if kind == "bind":
                    mine = handle.bind(payload).run()
                else:
                    mine = twin.run(payload)
                seconds = recorder.close()
                recorder.open("replay")
                rows = shadow.read(kind, target, payload, handle)
                recorder.close()
                if sorted(map(repr, rows)) != sorted(map(repr, mine.rows)):
                    mismatches += 1
                if traced:
                    (hit_us if mine.served_from_cache else miss_us).append(seconds)
                    if len(shadow.executed) > executed_before and not mine.served_from_cache:
                        facade_us.append(seconds - shadow.executed[-1][0])
            if not traced:
                del recorder.spans[keep:]  # warm-up leaves no spans
        if not recorder.spans:
            raise RuntimeError("the trace window is empty")
    finally:
        twin.close()
        if twin_dir is not None:
            shutil.rmtree(twin_dir, ignore_errors=True)
    bounded = shadow.executed
    written = sum(shadow.rows_written.values())
    out = {
        "beas.bind_us": _median_us(recorder.durations("beas.bind")),
        "beas.facade_overhead_us": _median_us(facade_us),
        "bounded.rebind_us": _median_us(recorder.durations("bounded.rebind")),
        "bounded.execute_us": _median_us(recorder.durations("bounded.execute")),
        "bounded.fetch_ops_per_req": shadow.fetch_ops / max(shadow.reads, 1),
        "bounded.bound_slack": (
            statistics.fmean(fetched / bound for _, fetched, bound in bounded if bound)
            if bounded else 0.0
        ),
        "engine.tail_us": _median_us(recorder.durations("engine.tail")),
        "serving.hit_serve_us": _median_us(hit_us),
        "serving.miss_serve_us": _median_us(miss_us),
        "storage.wal_append_us": _median_us(recorder.durations("storage.wal_append")),
        "storage.wal_bytes_per_row": (
            (shadow.store.wal_bytes_appended - shadow.wal_bytes_before) / written
            if shadow.store is not None and written else 0.0
        ),
    }
    for kind, rows in shadow.rows_written.items():
        out[f"maintenance.{kind}_us_per_row"] = (
            shadow.write_seconds[kind] / rows * US if rows else 0.0
        )
    return out, shadow, mismatches, hit_us + miss_us


def frontend_costs(bench: harness.Workload, shadow: Shadow, reads: Sequence) -> dict:
    """parse / fingerprint / normalize / check over the distinct statements
    of the traced window, and AccessIndex.fetch on the keys its plans
    present (single-constant keys only: those need no intermediate)."""
    texts = list(
        dict.fromkeys(
            payload if kind == "sql" else bench.templates[target].sql
            for kind, target, payload, _ in reads
        )
    )[:50]
    schema = shadow.database.schema
    parse_s, fingerprint_s, normalize_s, check_s = [], [], [], []
    fetch_s, fetch_rows = [], []
    for text in texts:
        start = clock()
        statement = parse(text)
        parse_s.append(clock() - start)
        start = clock()
        statement_fingerprint(statement)
        fingerprint_s.append(clock() - start)
        start = clock()
        normalize(statement, schema)
        normalize_s.append(clock() - start)
        start = clock()
        decision = shadow.checker.check(statement)
        check_s.append(clock() - start)
        if not decision.covered or not isinstance(decision.plan, BoundedPlan):
            continue
        first = decision.plan.fetch_ops[0]
        if all(p.source == "const" and len(p.values) == 1 for p in first.key_parts):
            index = shadow.catalog.index_for(first.constraint)
            key = tuple(p.values[0] for p in first.key_parts)
            start = clock()
            bucket = index.fetch(key)
            fetch_s.append(clock() - start)
            fetch_rows.append(len(bucket))
    return {
        "sql.parse_us": _median_us(parse_s),
        "sql.fingerprint_us": _median_us(fingerprint_s),
        "sql.normalize_us": _median_us(normalize_s),
        "bounded.check_us": _median_us(check_s),
        "access.fetch_us": _median_us(fetch_s),
        "access.tuples_per_fetch": statistics.fmean(fetch_rows) if fetch_rows else 0.0,
    }


def _run_sample(session, bench: harness.Workload, reads: Sequence, **options) -> list:
    handles = loadgen.prepare(session, bench.templates)
    results = []
    for kind, target, payload, _ in reads:
        if kind == "bind":
            results.append(handles[target].bind(payload).run(use_result_cache=False, **options))
        else:
            results.append(session.run(payload, use_result_cache=False, **options))
    return results


def alternative_routes(bench: harness.Workload, reads: Sequence) -> dict:
    """The same sampled reads through every route that is off the default
    path. Each route gets one unmeasured pass first (process spawn,
    snapshot shipping, first-touch decisions), then the measured pass."""
    database = harness.clone_database(bench.dataset.database)
    out = {}

    with Session(database, tlc_access_schema()) as session:
        _run_sample(session, bench, reads, executor="columnar")
        columnar = [
            r.metrics.seconds
            for r in _run_sample(session, bench, reads, executor="columnar")
            if r.metrics.rows_per_batch
        ]
        out["engine.columnar_execute_us"] = _median_us(columnar)
        oracle = ConventionalEngine(database)
        costs = []
        for name in ("Q1", "Q11"):
            start = clock()
            oracle.execute(bench.templates[name].sql)
            costs.append(clock() - start)
        out["engine.conventional_ms"] = statistics.fmean(costs) * 1e3

    pooled_options = ExecutionOptions(parallelism=2)
    with Session(database, tlc_access_schema(), options=pooled_options) as session:
        _run_sample(session, bench, reads)
        pooled = [r.metrics for r in _run_sample(session, bench, reads) if r.metrics.pool_workers]
        out["engine.pool_plan_us"] = _median_us([m.seconds for m in pooled])
        out["engine.pool_wait_us"] = _median_us([m.pool_wait_seconds for m in pooled])
        routed = [
            r.metrics
            for r in _run_sample(session, bench, reads, routing="learned")
            if r.metrics.routed_mode
        ]
        out["engine.router_explore_share"] = (
            sum(m.routing_explored for m in routed) / len(routed) if routed else 0.0
        )
        pool = session.stats().pool
        out["engine.pool_fallbacks"] = float(pool.fallbacks) if pool else 0.0

    fleet_options = ExecutionOptions(replicas=2)
    with Session(database, tlc_access_schema(), options=fleet_options) as session:
        _run_sample(session, bench, reads)
        served = [
            r.metrics for r in _run_sample(session, bench, reads) if r.metrics.replica_id >= 0
        ]
        after = session.stats().fleet
        out["distributed.fleet_plan_us"] = _median_us([m.seconds for m in served])
        out["distributed.wire_us"] = _median_us([m.wire_seconds for m in served])
        # snapshots ship on the first pass: amortise them over every plan
        out["distributed.bytes_per_req"] = (
            after.bytes_shipped / after.plans_dispatched if after.plans_dispatched else 0.0
        )
        out["distributed.failovers"] = float(after.failovers) if after else 0.0
    return out


def storage_costs(bench: harness.Workload, shadow: Shadow) -> dict:
    """Warm restart from the shadow's store, and what the store weighs
    against the data it indexes (maint_mix only; zero elsewhere)."""
    out = {
        "storage.checkpoint_s": shadow.checkpoint_s,
        "storage.warm_restart_s": 0.0,
        "storage.bytes_per_user_byte": 0.0,
    }
    if shadow.store is None:
        return out
    directory = shadow.store.directory
    shadow.close()
    # the base data a restarted process would load: the dataset as generated
    database = harness.clone_database(bench.dataset.database)
    schema = tlc_access_schema()
    catalog = ASCatalog(database)
    store = MmapStore(directory)
    try:
        start = clock()
        loaded = store.try_load(catalog, schema)
        out["storage.warm_restart_s"] = clock() - start if loaded else 0.0
    finally:
        store.close()
    stored = sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())
    user = 0
    for name in sorted({c.relation for c in schema}):
        table = database.table(name)
        dtypes = [column.dtype for column in table.schema.columns]
        stride = max(1, len(table.rows) // 500)
        sampled = table.rows[::stride]
        size = sum(len(",".join(encode_row(row, dtypes))) + 1 for row in sampled)
        user += size * len(table.rows) // max(len(sampled), 1)
    out["storage.bytes_per_user_byte"] = stored / user
    shutil.rmtree(directory, ignore_errors=True)
    return out


def run(bench: harness.Workload, generate_s: float) -> dict:
    """The whole traced run of one workload: its per-layer record."""
    sizes = bench.sizes
    metrics, tally, untraced_mean = stats_delta(bench)
    recorder = Recorder()
    spans, shadow, mismatches, traced_reads = replay(bench, recorder)
    try:
        metrics.update(spans)
        window = bench.ops[bench.warmup_ops: bench.warmup_ops + sizes.trace_sample]
        reads = [op for op in window if op[0] in ("bind", "sql")]
        metrics.update(frontend_costs(bench, shadow, reads))
        metrics["access.index_build_s"] = shadow.index_build_s
        metrics.update(storage_costs(bench, shadow))
    finally:
        shadow.close()
    covered = [op for op in reads if op[1] != "Q11"][: sizes.alt_route_sample]
    metrics.update(alternative_routes(bench, covered))
    metrics["workloads.generate_s"] = generate_s
    metrics["loadgen.trace_overhead_share"] = (
        statistics.fmean(traced_reads) / untraced_mean - 1.0
    )
    recorder.dump(bench.out_dir / f"trace_{bench.name}.json")
    report, rows = layer_report(recorder)
    attempted = tally.executed + tally.errors + len(reads)
    failed = tally.errors + tally.bound_violations + tally.short_writes + mismatches
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": {
            "errors": tally.errors,
            "bound_violations": tally.bound_violations,
            "short_writes": tally.short_writes,
            "replay_mismatches": mismatches,
        },
        "layer_report": report,
        "layer_rows": rows,
        "spans": len(recorder.spans),
    }
