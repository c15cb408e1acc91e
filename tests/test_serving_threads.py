"""Concurrency contract of the sharded serving layer.

Three families of checks over :class:`BEASServer` (sharded):

* **Linearizability by serial replay** — N writer threads (one per
  table, so per-table version numbers identify write prefixes) and M
  reader threads hammer one server. Every observed answer carries the
  table-version vector it was computed under
  (``metrics.table_versions``); the history is accepted iff (a) each
  observed version is one an actual write produced, (b) versions
  respect real time — a read that *started* after a write *completed*
  sees at least that write, and never a write that had not started by
  the time the read finished — and (c) per reader, observed versions
  are monotone. The final state must equal a serial replay of all
  per-thread operations.

* **Non-blocking maintenance** — a long maintenance batch on ``call``
  must not stall concurrent reads of ``package`` beyond a small bound
  (the per-table write lock is the point of the sharded design).

* **Deadlock canary** — a mixed workload of multi-shard joins,
  single-table reads, maintenance, and access-schema changes finishes
  within a hard timeout (ordered acquisition means no lock cycles).

* **Stats-snapshot atomicity** — ``BEASServer.stats()`` polled during a
  subsumption-heavy workload must never report torn totals. Within one
  request the bump order is executions (admin lock), then the shard's
  result-cache hit/miss, then the subsumption/rebind counters (admin
  lock again); a snapshot that reads all admin counters in a single
  block can therefore observe ``subsumed_hits > result.misses`` or
  ``hits + misses > executions``. ``stats()`` reads the counter
  families in reverse bump order, and this suite holds it to that.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

from repro import BEAS, AccessConstraint

from tests.conftest import example1_access_schema, example1_database
from tests.test_subsumption_differential import build_events_database, events_access

WRITERS = {"call": 0, "package": 1, "business": 2}
READERS = 4
WRITES_PER_THREAD = 12
READS_PER_THREAD = 30

QUERIES = {
    "call": (
        "SELECT DISTINCT recnum, region FROM call "
        "WHERE pnum = '100' AND date = '2016-06-01'"
    ),
    "package": "SELECT pid FROM package WHERE pnum = '100' AND year = 2016",
    "business": (
        "SELECT business.pnum FROM business "
        "WHERE business.type = 'bank' AND business.region = 'east'"
    ),
    "join": (
        "SELECT call.region, business.type FROM call, business "
        "WHERE call.pnum = business.pnum AND call.date = '2016-06-01'"
    ),
}


def _write_rows(table: str, thread: int, op: int) -> list[tuple]:
    """Commutative, key-unique rows for one write batch."""
    base = 50_000 + thread * 1_000 + op
    if table == "call":
        return [(base, "100", f"w{thread}-{op}", "2016-06-01", "storm")]
    if table == "package":
        # distinct pnum per batch: psi2 bounds the packages of one
        # (pnum, year), so the writer must spread its key space
        return [
            (base, f"55{thread}{op:02d}", f"p{thread}-{op}",
             "2016-02-01", "2016-11-30", 2016)
        ]
    return [(f"9{thread}{op:02d}", "shop", "harbor")]


class _WriterLog:
    """Per-table write history: (version_after, start, end) per batch."""

    def __init__(self, initial_version: int):
        self.initial_version = initial_version
        self.batches: list[tuple[int, float, float]] = []

    def versions(self) -> set[int]:
        return {self.initial_version} | {v for v, _, _ in self.batches}

    def min_version_visible_at(self, instant: float) -> int:
        """Writes completed before ``instant`` must be visible."""
        done = [v for v, _, end in self.batches if end < instant]
        return max(done, default=self.initial_version)

    def max_version_started_by(self, instant: float) -> int:
        started = [v for v, start, _ in self.batches if start < instant]
        return max(started, default=self.initial_version)


def test_linearizable_history_and_serial_replay():
    server = BEAS(example1_database(), example1_access_schema()).session().server
    logs = {
        table: _WriterLog(server.database.table(table).version)
        for table in WRITERS
    }
    errors: list = []
    observations: list[list] = [[] for _ in range(READERS)]
    barrier = threading.Barrier(len(WRITERS) + READERS)

    def writer(table: str, index: int) -> None:
        try:
            barrier.wait(timeout=30)
            for op in range(WRITES_PER_THREAD):
                start = time.perf_counter()
                batch = server.insert(table, _write_rows(table, index, op))
                end = time.perf_counter()
                logs[table].batches.append((batch.table_version, start, end))
        except Exception as error:  # pragma: no cover - assertion target
            errors.append(error)

    def reader(index: int) -> None:
        try:
            prepared = {
                name: server.prepare(sql) for name, sql in QUERIES.items()
            }
            barrier.wait(timeout=30)
            names = list(QUERIES)
            for op in range(READS_PER_THREAD):
                name = names[(index + op) % len(names)]
                start = time.perf_counter()
                result = prepared[name].execute()
                end = time.perf_counter()
                observations[index].append(
                    (dict(result.metrics.table_versions), start, end)
                )
        except Exception as error:  # pragma: no cover - assertion target
            errors.append(error)

    threads = [
        threading.Thread(target=writer, args=(table, index))
        for table, index in WRITERS.items()
    ] + [threading.Thread(target=reader, args=(i,)) for i in range(READERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors, errors
    assert all(not thread.is_alive() for thread in threads)

    # (a) + (b): every observation is a real write prefix, placed in real time
    for per_reader in observations:
        last_seen: dict[str, int] = {}
        for versions, start, end in per_reader:
            for table, version in versions.items():
                log = logs[table]
                assert version in log.versions(), (table, version)
                assert version >= log.min_version_visible_at(start), (
                    "read missed a write that completed before it started",
                    table, version, start,
                )
                assert version <= log.max_version_started_by(end), (
                    "read observed a write from its future",
                    table, version, end,
                )
                # (c) per-session monotonicity
                assert version >= last_seen.get(table, 0), (table, version)
                last_seen[table] = version

    # final state == serial replay of the same per-thread operations
    replay = BEAS(example1_database(), example1_access_schema()).session().server
    for table, index in WRITERS.items():
        for op in range(WRITES_PER_THREAD):
            replay.insert(table, _write_rows(table, index, op))
    for table in WRITERS:
        live = Counter(server.database.table(table).rows)
        replayed = Counter(replay.database.table(table).rows)
        assert live == replayed, table
    for sql in QUERIES.values():
        concurrent_answer = server.execute(sql, use_result_cache=False)
        serial_answer = replay.execute(sql, use_result_cache=False)
        assert Counter(concurrent_answer.rows) == Counter(serial_answer.rows)

    # the shards were genuinely exercised in parallel
    stats = server.stats()
    assert stats.executions >= READERS * READS_PER_THREAD
    assert stats.shards["call"].maintenance_batches == WRITES_PER_THREAD
    assert stats.shards["package"].maintenance_batches == WRITES_PER_THREAD


def test_maintenance_on_one_table_does_not_block_reads_of_another():
    """Reads of ``package`` proceed while a big batch lands in ``call``."""
    server = BEAS(example1_database(), example1_access_schema()).session().server
    package_query = server.prepare(QUERIES["package"])
    package_query.execute()
    package_query.execute()  # admitted: steady-state read path

    # a deliberately heavy batch: many distinct (pnum, date) groups so the
    # REJECT validation walks every row without violating psi1's bound
    # (about a microsecond a row, and it has to outlast several reads)
    big_batch = [
        (100_000 + i, f"6{i % 977:03d}", f"b{i}", "2016-06-01", "delta")
        for i in range(200_000)
    ]
    started = threading.Event()
    duration: list[float] = []

    def maintain() -> None:
        started.set()
        start = time.perf_counter()
        server.insert("call", big_batch)
        duration.append(time.perf_counter() - start)

    writer = threading.Thread(target=maintain)
    read_latencies: list[float] = []
    overlapped = 0
    writer.start()
    started.wait(timeout=10)
    while writer.is_alive():
        start = time.perf_counter()
        result = package_query.execute()
        read_latencies.append(time.perf_counter() - start)
        if writer.is_alive():
            overlapped += 1
        assert result.rows  # sanity: the answer itself is unaffected
    writer.join(timeout=60)
    assert duration, "maintenance thread did not finish"

    assert overlapped >= 3, (
        f"only {overlapped} reads overlapped the batch "
        f"(batch took {duration[0] * 1000:.1f} ms) — too fast to judge"
    )
    bound = max(0.05, duration[0] / 4)
    assert max(read_latencies) < bound, (
        f"a read of `package` stalled {max(read_latencies) * 1000:.1f} ms "
        f"behind maintenance on `call` ({duration[0] * 1000:.1f} ms)"
    )


def test_mixed_workload_deadlock_canary():
    """Joins (multi-shard read locks), maintenance (write locks), and
    schema changes (schema write lock) interleave without deadlock."""
    server = BEAS(example1_database(), example1_access_schema()).session().server
    errors: list = []
    stop = threading.Event()

    def querier(index: int) -> None:
        try:
            names = list(QUERIES)
            op = 0
            while not stop.is_set():
                server.execute(QUERIES[names[(index + op) % len(names)]])
                op += 1
        except Exception as error:  # pragma: no cover
            errors.append(error)

    def maintainer() -> None:
        try:
            op = 0
            while not stop.is_set():
                rows = _write_rows("call", 9, op)
                server.insert("call", rows)
                server.delete("call", rows)
                op += 1
        except Exception as error:  # pragma: no cover
            errors.append(error)

    def schema_churn() -> None:
        try:
            toggle = AccessConstraint(
                "call", ["region"], ["recnum"], 5_000, name="canary"
            )
            while not stop.is_set():
                server.register(toggle, validate=False)
                server.unregister("canary")
                time.sleep(0.002)
        except Exception as error:  # pragma: no cover
            errors.append(error)

    threads = (
        [threading.Thread(target=querier, args=(i,)) for i in range(3)]
        + [threading.Thread(target=maintainer)]
        + [threading.Thread(target=schema_churn)]
    )
    for thread in threads:
        thread.start()
    time.sleep(1.0)
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
    assert not errors, errors
    assert all(not thread.is_alive() for thread in threads), "deadlock"


def test_stats_snapshot_is_never_torn_under_subsume_load():
    """``stats()`` must hold the counter invariants while requests land.

    Workload shape: one wide query is cached eagerly, then reader
    threads hammer a strictly narrower binding with
    ``result_reuse="subsume"``. Subsumed answers are not re-admitted,
    so *every* narrow request is one execution + one exact result-cache
    miss + one subsumed hit — the densest possible traffic across the
    three counter families, each bumped at a different point of the
    request. A concurrent poller asserts the cross-family invariants on
    every snapshot; a stats() that reads the admin counters in one block
    (the pre-fix behaviour) fails here with ``subsumed_hits >
    result.misses`` within a few hundred polls. The interpreter switch
    interval is cranked down for the duration so a context switch lands
    inside the handful of bytecodes between the shard sweep and the
    admin read often enough to *judge* the read order, not just
    exercise it.
    """
    import sys

    server = BEAS(build_events_database(), events_access()).session(
        result_admission="always"
    ).server
    select = "SELECT event_id, day, region, score FROM events WHERE "
    wide = f"{select}pnum = 'p1' AND day >= 10 AND day <= 80 ORDER BY day"
    narrow = f"{select}pnum = 'p1' AND day >= 20 AND day <= 60 ORDER BY day"
    server.execute(wide, result_reuse="subsume")  # cached source
    probe = server.execute(narrow, result_reuse="subsume")
    assert probe.metrics.tuples_fetched == 0, "workload is not subsuming"

    errors: list = []
    stop = threading.Event()
    polls = [0]

    def reader() -> None:
        try:
            while not stop.is_set():
                server.execute(narrow, result_reuse="subsume")
        except Exception as error:  # pragma: no cover - assertion target
            errors.append(error)

    def poller() -> None:
        try:
            while not stop.is_set():
                stats = server.stats()
                polls[0] += 1
                assert stats.subsumed_hits <= stats.result.misses, (
                    "torn snapshot: subsumed hits ahead of the misses "
                    "that produced them",
                    stats.subsumed_hits, stats.result.misses,
                )
                assert (
                    stats.result.hits + stats.result.misses
                    <= stats.executions
                ), (
                    "torn snapshot: cache traffic ahead of executions",
                    stats.result.hits, stats.result.misses, stats.executions,
                )
        except Exception as error:  # pragma: no cover - assertion target
            errors.append(error)

    threads = [threading.Thread(target=reader) for _ in range(4)] + [
        threading.Thread(target=poller)
    ]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        time.sleep(1.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(switch_interval)
    assert not errors, errors
    assert all(not thread.is_alive() for thread in threads)
    assert polls[0] >= 100, f"only {polls[0]} stats polls - nothing judged"

    final = server.stats()
    assert final.subsumed_hits > 0
    assert final.subsumed_hits <= final.result.misses
    assert final.result.hits + final.result.misses <= final.executions
