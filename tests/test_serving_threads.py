"""Concurrency contract of the sharded serving layer.

Three families of checks over the sharded serving state of a :class:`BEAS`:

* **Linearizability by serial replay** — N writer threads (one per
  table, so per-table version numbers identify write prefixes) and M
  reader threads hammer one session. Every observed answer carries the
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

* **Stats-snapshot atomicity** — ``BEAS.stats()`` polled during a
  rebind-heavy workload must never report torn totals. Within one
  request the bump order is executions together with the result
  cache's hit/miss (one ``ResultCache.observe`` section), then the
  rebind counters (their own mutex); a snapshot that reads the rebind
  counters after the cache can therefore observe
  ``rebinds > result.misses``. ``stats()`` reads the counter families
  in reverse bump order, and this suite holds it to that.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

from repro import BEAS, AccessConstraint

from tests.conftest import example1_access_schema, example1_database

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
    session = BEAS(example1_database(), example1_access_schema()).session()
    logs = {
        table: _WriterLog(session.database.table(table).version)
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
                batch = session.insert(table, _write_rows(table, index, op))
                end = time.perf_counter()
                logs[table].batches.append((batch.table_version, start, end))
        except Exception as error:  # pragma: no cover - assertion target
            errors.append(error)

    def reader(index: int) -> None:
        try:
            prepared = {
                name: session.query(sql) for name, sql in QUERIES.items()
            }
            barrier.wait(timeout=30)
            names = list(QUERIES)
            for op in range(READS_PER_THREAD):
                name = names[(index + op) % len(names)]
                start = time.perf_counter()
                result = prepared[name].run()
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
    replay = BEAS(example1_database(), example1_access_schema()).session()
    for table, index in WRITERS.items():
        for op in range(WRITES_PER_THREAD):
            replay.insert(table, _write_rows(table, index, op))
    for table in WRITERS:
        live = Counter(session.database.table(table).rows)
        replayed = Counter(replay.database.table(table).rows)
        assert live == replayed, table
    for sql in QUERIES.values():
        concurrent_answer = session.run(sql, use_result_cache=False)
        serial_answer = replay.run(sql, use_result_cache=False)
        assert Counter(concurrent_answer.rows) == Counter(serial_answer.rows)

    # the shards were genuinely exercised in parallel
    stats = session.stats()
    assert stats.executions >= READERS * READS_PER_THREAD
    assert stats.shards["call"].maintenance_batches == WRITES_PER_THREAD
    assert stats.shards["package"].maintenance_batches == WRITES_PER_THREAD


def test_maintenance_on_one_table_does_not_block_reads_of_another():
    """Reads of ``package`` proceed while a big batch lands in ``call``."""
    session = BEAS(example1_database(), example1_access_schema()).session()
    package_query = session.query(QUERIES["package"])
    package_query.run()
    package_query.run()  # admitted: steady-state read path

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
        session.insert("call", big_batch)
        duration.append(time.perf_counter() - start)

    writer = threading.Thread(target=maintain)
    read_latencies: list[float] = []
    overlapped = 0
    writer.start()
    started.wait(timeout=10)
    while writer.is_alive():
        start = time.perf_counter()
        result = package_query.run()
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
    session = BEAS(example1_database(), example1_access_schema()).session()
    errors: list = []
    stop = threading.Event()

    def querier(index: int) -> None:
        try:
            names = list(QUERIES)
            op = 0
            while not stop.is_set():
                session.run(QUERIES[names[(index + op) % len(names)]])
                op += 1
        except Exception as error:  # pragma: no cover
            errors.append(error)

    def maintainer() -> None:
        try:
            op = 0
            while not stop.is_set():
                rows = _write_rows("call", 9, op)
                session.insert("call", rows)
                session.delete("call", rows)
                op += 1
        except Exception as error:  # pragma: no cover
            errors.append(error)

    def schema_churn() -> None:
        try:
            toggle = AccessConstraint(
                "call", ["region"], ["recnum"], 5_000, name="canary"
            )
            while not stop.is_set():
                session.register(toggle, validate=False)
                session.unregister("canary")
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


def test_stats_snapshot_is_never_torn_under_rebind_load():
    """``stats()`` must hold the counter invariants while requests land.

    Workload shape: one prepared template, pinned by a first binding,
    then reader threads execute it for bindings no request used before.
    So *every* request is one execution + one result-cache miss + one
    rebind — the densest possible traffic across the three counter
    families, each bumped at a different point of the request. A
    concurrent poller asserts the cross-family invariants on every
    snapshot; a stats() that reads the cache before the admin counters
    fails here with ``rebinds > result.misses`` within a few hundred
    polls. The interpreter switch interval is cranked down for the
    duration so a context switch lands inside the handful of bytecodes
    between the cache snapshot and the admin read often enough to
    *judge* the read order, not just exercise it.
    """
    import sys

    session = BEAS(example1_database(), example1_access_schema()).session()
    query = session.query(QUERIES["call"])
    pinned = query.bind({"call.date": "2016-07-01"}).run()
    assert pinned.decision.provenance == "fresh"

    errors: list = []
    stop = threading.Event()
    polls = [0]

    def reader(index: int) -> None:
        try:
            op = 0
            while not stop.is_set():
                result = query.bind({"call.date": f"r{index}-{op}"}).run()
                assert result.decision.provenance == "rebound"
                op += 1
        except Exception as error:  # pragma: no cover - assertion target
            errors.append(error)

    def poller() -> None:
        try:
            while not stop.is_set():
                stats = session.stats()
                polls[0] += 1
                assert stats.rebinds <= stats.result.misses, (
                    "torn snapshot: rebinds ahead of the misses that "
                    "preceded them",
                    stats.rebinds, stats.result.misses,
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

    threads = [
        threading.Thread(target=reader, args=(i,)) for i in range(READERS)
    ] + [threading.Thread(target=poller)]
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

    final = session.stats()
    assert final.rebinds > 0
    assert final.rebinds <= final.result.misses
    assert final.result.hits + final.result.misses <= final.executions
