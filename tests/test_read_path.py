"""What a served read does not pay for, and what it still owes.

* **No admin-lock section.** A result-cache hit and a rebound miss take
  the engine's ``_admin_lock`` 0 times: ``executions`` is counted in the
  result cache's own section, together with the read's hit or miss, and
  the rebind counters sit under a mutex of their own.
* **A reused ``Decision`` still belongs to its handle.** A hit by SQL
  text is stamped with the ``Decision`` an earlier hit on the same entry
  was stamped with, while generation, handle and budget match. A hit by
  a ``Query`` handle names that handle, and the cache keeps no reference
  to it (a handle holds its Session, which holds the engine).
* **An override is a constant or a collection of constants.** A
  ``range``, a generator, a ``dict`` or a list holding a list is not
  bound as one constant: each raises ``ServingError`` naming the slot.
* **Under concurrency** (``BEAS_FUZZ_SEEDS`` seeds), threads hitting
  shared entries by text and by their own handles, while the access
  schema changes, each get a decision that names their own handle and
  the generation they observed, never an older one.
"""

from __future__ import annotations

import gc
import random
import threading
import time
import weakref

import pytest

from repro import BEAS, AccessConstraint
from repro.config import env_fuzz_seeds
from repro.errors import ServingError
from repro.sql.parser import parse

from tests.conftest import example1_access_schema, example1_database

CALL_SQL = (
    "SELECT DISTINCT recnum, region FROM call "
    "WHERE pnum = '100' AND date = '2016-06-01'"
)
PACKAGE_SQL = "SELECT pid FROM package WHERE pnum = '100' AND year = 2016"
#: a constraint the schema-change thread registers and drops again
EXTRA = AccessConstraint("package", ["pid"], ["year"], 10, name="extra")


class CountingLock:
    """A lock that counts its acquisitions, both ways in: ``with`` and
    ``acquire``."""

    def __init__(self, lock):
        self._lock = lock
        self.acquisitions = 0

    def acquire(self, *args, **kwargs):
        self.acquisitions += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self):
        self._lock.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()


@pytest.fixture
def beas():
    with BEAS(example1_database(), example1_access_schema()) as engine:
        yield engine


# --------------------------------------------------------------------------- #
# no admin-lock section
# --------------------------------------------------------------------------- #
def test_a_hit_and_a_rebound_miss_take_no_admin_lock(beas):
    session = beas.session()
    query = session.query(CALL_SQL)
    assert query.bind(date="2016-06-02").run().decision.provenance == "fresh"
    session.run(CALL_SQL)
    session.run(CALL_SQL)  # admitted on the second sighting
    counting = beas._admin_lock = CountingLock(beas._admin_lock)

    hit = session.run(CALL_SQL)
    assert hit.served_from_cache
    assert counting.acquisitions == 0

    miss = query.bind(date="2016-06-03").run()
    assert miss.decision.provenance == "rebound" and not miss.served_from_cache
    assert counting.acquisitions == 0

    stats = session.stats()  # the stats() reader still takes it
    assert counting.acquisitions > 0
    assert stats.executions == 5
    assert stats.result.hits + stats.result.misses == stats.executions
    assert stats.rebinds == 2  # the text's second sighting rebound too


def test_a_read_without_the_result_cache_is_still_counted(beas):
    session = beas.session()
    session.run(CALL_SQL, use_result_cache=False)
    stats = session.stats()
    assert stats.executions == 1
    assert stats.result.hits + stats.result.misses == 0


# --------------------------------------------------------------------------- #
# a reused Decision still belongs to its handle
# --------------------------------------------------------------------------- #
def test_text_hits_share_one_decision_value(beas):
    session = beas.session()
    session.run(CALL_SQL)
    session.run(CALL_SQL)
    first, second = session.run(CALL_SQL), session.run(CALL_SQL)
    assert first.served_from_cache and second.served_from_cache
    assert first.decision is second.decision
    assert first.decision.provenance == "result-cache"
    assert first.decision.query is None
    assert first.decision.generation == beas.catalog.schema_generation
    # each Result and its metrics are still its own
    assert first is not second and first.rows is not second.rows
    assert first.metrics is not second.metrics
    assert second.metrics.decision_provenance == "result-cache"


def test_two_handles_hitting_one_entry_each_get_their_own(beas):
    session = beas.session()
    one, two = session.query(CALL_SQL), session.query(CALL_SQL)
    assert one is not two
    one.run()
    two.run()  # admitted on the second sighting
    generation = beas.catalog.schema_generation
    by_one, by_two, again = one.run(), two.run(), one.run()
    for result, handle in ((by_one, one), (by_two, two), (again, one)):
        assert result.served_from_cache
        assert result.decision.query is handle
        assert result.decision.provenance == "result-cache"
        assert result.decision.generation == generation
    # a text hit on its own entry is not stamped with a handle's
    session.run(CALL_SQL)
    session.run(CALL_SQL)
    assert session.run(CALL_SQL).decision.query is None


def test_a_handle_never_takes_the_handle_free_decision(beas):
    """A parsed statement and a handle of the same query share one
    entry: the handle's hit is not stamped with the kept, handle-free
    ``Decision``, and does not displace it."""
    session = beas.session()
    statement, handle = parse(CALL_SQL), session.query(CALL_SQL)
    session.run(statement)
    session.run(statement)
    by_statement = session.run(statement)
    by_handle = handle.run()
    assert by_statement.served_from_cache and by_handle.served_from_cache
    assert by_statement.decision.query is None
    assert by_handle.decision.query is handle
    assert session.run(statement).decision is by_statement.decision


def test_a_schema_change_stamps_a_new_generation(beas):
    session = beas.session()
    for _ in range(3):
        before = session.run(CALL_SQL)
    assert before.served_from_cache
    beas.register(EXTRA)
    for _ in range(3):  # the flush forgot the key: two sightings again
        after = session.run(CALL_SQL)
    assert after.served_from_cache
    assert after.decision is not before.decision
    assert after.decision.generation == before.decision.generation + 1
    assert after.decision.generation == beas.catalog.schema_generation


def test_a_decision_run_keeps_its_budget(beas):
    session = beas.session()
    for _ in range(3):
        unbudgeted = session.run(CALL_SQL)
    for _ in range(3):
        budgeted = session.run(CALL_SQL, budget=1000)
    assert unbudgeted.served_from_cache and budgeted.served_from_cache
    assert unbudgeted.decision.budget is None
    assert budgeted.decision.budget == 1000


def test_handle_hits_leave_no_reference_to_the_engine():
    """A hit by a ``Query`` handle is not kept on the entry: the engine
    is still freed by reference counting alone."""
    engine = BEAS(example1_database(), example1_access_schema())
    session = engine.session()
    query = session.query(CALL_SQL)
    for _ in range(4):
        result = query.run()
    assert result.served_from_cache
    freed = weakref.ref(engine)
    collecting = gc.isenabled()
    gc.disable()
    try:
        del engine, session, query, result
        assert freed() is None
    finally:
        if collecting:
            gc.enable()


# --------------------------------------------------------------------------- #
# an override is a constant, or a collection of constants
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "value",
    [
        range(2),
        (str(value) for value in range(2)),
        {"100": 1},
        [["100"]],
        iter(["100"]),
    ],
    ids=["range", "generator", "dict", "nested-list", "iterator"],
)
def test_an_override_that_is_no_constant_is_refused(beas, value):
    query = beas.session().query(CALL_SQL)
    with pytest.raises(ServingError, match="'call.pnum'"):
        query.bind({"call.pnum": value}).run()
    with pytest.raises(ServingError, match="'call.pnum'"):
        query.bind(pnum=value).decide()


@pytest.mark.parametrize(
    "value", [["100", "101"], ("100", "101"), {"100", "101"}, frozenset({"100", "101"})]
)
def test_a_collection_binds_as_an_in_list(beas, value):
    session = beas.session()
    expected = session.run(
        "SELECT DISTINCT recnum, region FROM call "
        "WHERE pnum IN ('100', '101') AND date = '2016-06-01'"
    )
    result = session.query(CALL_SQL).bind({"call.pnum": value}).run()
    assert result.to_set() == expected.to_set() != set()


@pytest.mark.parametrize("value", [[], None, ["100", None]])
def test_empty_and_null_overrides_name_the_slot(beas, value):
    query = beas.session().query(CALL_SQL)
    with pytest.raises(ServingError, match="'call.pnum'"):
        query.bind({"call.pnum": value}).run()


# --------------------------------------------------------------------------- #
# concurrent hits by text, statement and handles across schema changes
# --------------------------------------------------------------------------- #
THREADS = 4
READS = 120
STATEMENT = parse(CALL_SQL)


def _concurrent_hits(seed: int) -> None:
    with BEAS(example1_database(), example1_access_schema()) as beas:
        session = beas.session()
        generations: list[int] = [beas.catalog.schema_generation]
        reads = [0] * THREADS
        errors: list[BaseException] = []

        def reader(index: int) -> None:
            rng = random.Random(f"{seed}:{index}")
            # this thread's own handles; the handle of CALL_SQL shares its
            # entry with every thread's handle and with STATEMENT
            handles = [session.query(CALL_SQL), session.query(PACKAGE_SQL)]
            sources = [CALL_SQL, PACKAGE_SQL, STATEMENT]
            seen = 0
            try:
                for read in range(READS):
                    pick = rng.randrange(len(handles) + len(sources))
                    if pick < len(handles):
                        handle = handles[pick]
                        result = handle.run()
                    else:
                        handle = None
                        result = session.run(sources[pick - len(handles)])
                    decision = result.decision
                    assert decision.query is handle
                    assert decision.budget is None
                    assert decision.generation >= seen  # never an older one
                    assert decision.generation in generations
                    seen = decision.generation
                    if result.served_from_cache:
                        assert decision.provenance == "result-cache"
                        assert result.metrics.decision_provenance == "result-cache"
                    else:
                        assert decision.provenance in ("fresh", "cached", "rebound")
                    reads[index] = read + 1
            except BaseException as error:  # pragma: no cover - assertion target
                errors.append(error)

        threads = [threading.Thread(target=reader, args=(i,)) for i in range(THREADS)]
        for thread in threads:
            thread.start()
        rng = random.Random(seed)
        changes = rng.randrange(2, 5)
        for step in range(changes):
            # each change lands after a seeded share of the reads
            due = (step + rng.random()) * THREADS * READS // changes
            while sum(reads) < due and not errors and any(
                thread.is_alive() for thread in threads
            ):
                time.sleep(0.0005)
            # the generation a change makes is listed before it is live
            generations.append(beas.catalog.schema_generation + 1)
            if step % 2:
                beas.unregister(EXTRA.name)
            else:
                beas.register(EXTRA)
        for thread in threads:
            thread.join(timeout=60)
        assert not errors, errors
        assert all(not thread.is_alive() for thread in threads)
        stats = session.stats()
        assert stats.executions == THREADS * READS
        assert stats.result.hits + stats.result.misses == stats.executions
        assert stats.result.hits > 0


@pytest.mark.parametrize("seed", range(env_fuzz_seeds(3)))
def test_concurrent_hits_each_get_their_own_decision(seed):
    _concurrent_hits(seed)
