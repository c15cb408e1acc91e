"""Cross-wire linearizability: fleet serves ≡ oracle at observed versions.

``tests/test_serving_threads.py``'s serial-replay check, ported to a
1-coordinator / 3-replica fleet. Writer threads (one per table) and
reader threads hammer one sharded server whose covered bounded reads are
dispatched to socket-connected replicas; mid-run, one replica is killed
with the ``die_on_next_task`` chaos hook. The history is accepted iff:

* every observed table-version vector is one an actual write produced,
  placed consistently in real time, and per-reader monotone (the
  original suite's conditions);
* **every served answer equals the oracle at its observed version
  vector** — exact row order and exact ``tuples_fetched`` against a
  fresh ``replicas=1`` engine replaying the write log up to that
  vector, whether the answer came over the wire or from the
  coordinator's failover fallback;
* the injected kill shows up as a failover (never a wrong or missing
  answer), and the final state equals a serial replay.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

from repro import BEAS, ExecutionOptions, Session

from tests.conftest import example1_access_schema, example1_database

PORT_BASE = 8400
REPLICAS = 3
WRITERS = {"call": 0, "package": 1, "business": 2}
READERS = 4
WRITES_PER_THREAD = 10
READS_PER_THREAD = 24
KILL_AFTER_READS = 20  # one replica dies roughly mid-run

QUERIES = {
    "call": (
        "SELECT recnum, region FROM call "
        "WHERE pnum = '100' AND date = '2016-06-01'"
    ),
    "package": "SELECT pid FROM package WHERE pnum = '100' AND year = 2016",
    "business": (
        "SELECT pnum FROM business WHERE type = 'bank' AND region = 'east'"
    ),
}

DEPENDENCIES = {"call": ("call",), "package": ("package",), "business": ("business",)}


def _write_rows(table: str, thread: int, op: int) -> list[tuple]:
    """Commutative, key-unique rows for one write batch (the serial
    replay and the per-version oracles replay these deterministically)."""
    base = 50_000 + thread * 1_000 + op
    if table == "call":
        return [(base, "100", f"w{thread}-{op}", "2016-06-01", "storm")]
    if table == "package":
        return [
            (base, f"55{thread}{op:02d}", f"p{thread}-{op}",
             "2016-02-01", "2016-11-30", 2016)
        ]
    return [(f"9{thread}{op:02d}", "shop", "harbor")]


class _WriterLog:
    """Per-table write history: version -> (rows, start, end) per batch."""

    def __init__(self, initial_version: int):
        self.initial_version = initial_version
        self.batches: dict[int, tuple[list, float, float]] = {}

    def versions(self) -> set[int]:
        return {self.initial_version} | set(self.batches)

    def min_version_visible_at(self, instant: float) -> int:
        done = [v for v, (_, _, end) in self.batches.items() if end < instant]
        return max(done, default=self.initial_version)

    def max_version_started_by(self, instant: float) -> int:
        started = [
            v for v, (_, start, _) in self.batches.items() if start < instant
        ]
        return max(started, default=self.initial_version)

    def rows_through(self, version: int) -> list[tuple[int, list]]:
        """The (version, rows) batches a prefix up to ``version`` holds."""
        return sorted(
            (v, rows) for v, (rows, _, _) in self.batches.items()
            if v <= version
        )


class _Oracle:
    """Memoised ``replicas=1`` replays: one engine per distinct observed
    (query, dependency-version-vector) pair."""

    def __init__(self, logs: dict[str, _WriterLog]):
        self._logs = logs
        self._engines: dict[tuple, BEAS] = {}

    def _engine_at(self, vector: tuple) -> BEAS:
        engine = self._engines.get(vector)
        if engine is None:
            engine = BEAS(example1_database(), example1_access_schema())
            for table, version in vector:
                for _, rows in self._logs[table].rows_through(version):
                    engine.insert(table, rows)
            self._engines[vector] = engine
        return engine

    def answer(self, name: str, versions: dict[str, int]):
        vector = tuple(
            (table, versions[table]) for table in DEPENDENCIES[name]
        )
        result = (
            self._engine_at(vector)
            .session()
            .query(QUERIES[name])
            .run(use_result_cache=False)
        )
        return result.rows, result.metrics.tuples_fetched

    def close(self) -> None:
        for engine in self._engines.values():
            engine.close()


def test_fleet_history_is_linearizable_with_replica_kill():
    beas = BEAS(
        example1_database(),
        example1_access_schema(),
        replicas=REPLICAS,
        fleet_port_base=PORT_BASE,
    )
    # static routing whatever BEAS_ROUTING says: the fleet serves the
    # engine's own executor, which is what this history must exercise
    session = Session(beas=beas, options=ExecutionOptions(routing="static"))
    logs = {
        table: _WriterLog(session.database.table(table).version)
        for table in WRITERS
    }
    errors: list = []
    observations: list[list] = [[] for _ in range(READERS)]
    reads_done = [0]
    kill_gate = threading.Event()
    barrier = threading.Barrier(len(WRITERS) + READERS + 1)

    # warm in the main thread before any worker starts: the fleet forks
    # its replica processes here, not under a running thread herd, and
    # every template has a routed home + installed snapshot
    prepared = {name: session.query(sql) for name, sql in QUERIES.items()}
    victim = None
    for name in QUERIES:
        warm = prepared[name].run(use_result_cache=False)
        if victim is None and warm.metrics.replica_id >= 0:
            victim = warm.metrics.replica_id
    assert victim is not None, "no template was served by a replica"

    def writer(table: str, index: int) -> None:
        try:
            barrier.wait(timeout=30)
            for op in range(WRITES_PER_THREAD):
                rows = _write_rows(table, index, op)
                start = time.perf_counter()
                batch = session.insert(table, rows)
                end = time.perf_counter()
                logs[table].batches[batch.table_version] = (rows, start, end)
        except Exception as error:  # pragma: no cover - assertion target
            errors.append(error)

    def reader(index: int) -> None:
        try:
            barrier.wait(timeout=30)
            names = list(QUERIES)
            for op in range(READS_PER_THREAD):
                name = names[(index + op) % len(names)]
                start = time.perf_counter()
                result = prepared[name].run(use_result_cache=False)
                end = time.perf_counter()
                observations[index].append(
                    (
                        name,
                        list(result.rows),
                        result.metrics.tuples_fetched,
                        dict(result.metrics.table_versions),
                        result.metrics.replica_id,
                        start,
                        end,
                    )
                )
                reads_done[0] += 1
                if reads_done[0] >= KILL_AFTER_READS:
                    kill_gate.set()
        except Exception as error:  # pragma: no cover - assertion target
            errors.append(error)

    def killer() -> None:
        try:
            barrier.wait(timeout=30)
            kill_gate.wait(timeout=60)
            # the replica exits mid-dispatch: the in-flight read must
            # fail over to the coordinator, not hang and not lie
            beas.fleet.debug("die_on_next_task", replica_id=victim)
        except Exception as error:  # pragma: no cover - assertion target
            errors.append(error)

    threads = (
        [
            threading.Thread(target=writer, args=(table, index))
            for table, index in WRITERS.items()
        ]
        + [threading.Thread(target=reader, args=(i,)) for i in range(READERS)]
        + [threading.Thread(target=killer)]
    )
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not errors, errors
    assert all(not thread.is_alive() for thread in threads)

    # real-time placement + per-reader monotonicity (the original suite)
    for per_reader in observations:
        last_seen: dict[str, int] = {}
        for _, _, _, versions, _, start, end in per_reader:
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
                assert version >= last_seen.get(table, 0), (table, version)
                last_seen[table] = version

    # every answer — wire-served or failover-fallback — equals the
    # oracle at its observed version vector: exact order, exact fetches
    oracle = _Oracle(logs)
    try:
        wire_served = 0
        for per_reader in observations:
            for name, rows, fetched, versions, replica_id, _, _ in per_reader:
                oracle_rows, oracle_fetched = oracle.answer(name, versions)
                assert rows == oracle_rows, (name, versions, replica_id)
                assert fetched == oracle_fetched, (name, versions, replica_id)
                if replica_id >= 0:
                    wire_served += 1
    finally:
        oracle.close()
    assert wire_served > 0, "no observation was served over the wire"

    # the injected kill surfaced as a failover, never as a wrong answer
    stats = beas.fleet_stats()
    assert stats is not None
    assert stats.failovers >= 1
    assert stats.plans_dispatched > 0

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
    beas.close()
