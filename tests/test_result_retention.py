"""Cost-aware result-cache retention (GreedyDual, Cao & Irani 1997).

``ResultCache`` evicts the entry with the lowest ``clock + cost`` (cost:
the measured seconds of the miss that produced it; a hit re-prices the
entry at the current clock) and moves the clock to it. Six families:

1. **Equal costs are LRU** — a seeded 10 000-op run of installs, hits
   and invalidations against a reference ``OrderedDict`` LRU.
2. **Aging** — a costly entry outlives a cheap flood that LRU would
   evict it under, then ages out; no entry lives forever.
3. **The self-decline** — 5 000 random operations with random costs:
   the filings stay tight and the lazily re-keyed heap stays bounded.
4. **TLC** — a Q11 PARTIAL answer (a residual scan of ``data_usage``)
   stays cached in 16 entries across 200 distinct covered reads.
5. **Mutation** — with the cost flattened to a constant, (3) and (4)
   fail.
6. **Restart** — the cost is persisted with the entry.
"""

from __future__ import annotations

import pickle
import random
import shutil
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, replace

import pytest

from repro import AccessSchema, Database, ExecutionOptions, Session
from repro.beas.result import ExecutionMode
from repro.serving.cache import ResultCache
from repro.serving.request import CachedResult
from repro.workloads.tlc import generate_tlc, query_by_name, tlc_access_schema

from tests.test_result_invalidation import (
    DATES,
    INITIAL,
    PNUMS,
    YEARS,
    assert_filing_is_tight,
    build_database,
    constraints,
    render,
)

TABLES = ["a", "b", "c"]


@dataclass
class _Entry:
    cost: float
    tables: frozenset = frozenset({"a"})
    coarse_tables: frozenset = frozenset()
    read_keys: tuple = ()
    rows: int = 1


def _entry(rng: random.Random, cost: float) -> _Entry:
    deps = frozenset(rng.sample(TABLES, rng.randint(1, 2)))
    fine = [t for t in deps if rng.random() < 0.8]
    keys = {(f"psi_{t}", (rng.randrange(40),)) for t in fine for _ in range(rng.randint(0, 5))}
    return _Entry(
        cost=cost,
        tables=deps,
        coarse_tables=deps - frozenset(fine),
        read_keys=tuple(keys),
        rows=rng.randint(1, 8),
    )


def _cache(entries: int, max_bytes=None) -> ResultCache:
    return ResultCache(
        max_entries=entries,
        max_bytes=max_bytes,
        sizeof=lambda entry: 40 * entry.rows,
        admit_on_second_hit=False,
    )


def _keys(results: ResultCache) -> set:
    return {key for key, _ in results.entries()}


def _heap_is_bounded(results: ResultCache) -> bool:
    return len(results._heap) <= 2 * len(results) + ResultCache._HEAP_SLACK


# --------------------------------------------------------------------------- #
# (1) equal costs: exactly LRU
# --------------------------------------------------------------------------- #
def test_equal_costs_evict_exactly_as_lru():
    rng = random.Random(11)
    results = _cache(24, max_bytes=1500)
    reference: OrderedDict = OrderedDict()  # key -> size, least recent first
    evicted = 0
    for step in range(10_000):
        key = rng.randrange(80)
        roll = rng.random()
        if roll < 0.5:
            entry = _entry(rng, cost=0.25)
            assert results.install(key, entry)
            reference.pop(key, None)
            reference[key] = 40 * entry.rows
            while len(reference) > 24 or sum(reference.values()) > 1500:
                reference.popitem(last=False)
                evicted += 1
        elif roll < 0.9:
            assert (results.lookup(key) is not None) == (key in reference)
            if key in reference:
                reference.move_to_end(key)
        else:
            results.invalidate(key)
            reference.pop(key, None)
        assert _keys(results) == set(reference), step
    stats, own = results.snapshot()
    assert stats.evictions == evicted > 1000
    assert own["admission_declines"] == 0
    assert_filing_is_tight(results)


# --------------------------------------------------------------------------- #
# (2) aging: costly entries outlive cheap floods, but not forever
# --------------------------------------------------------------------------- #
def test_a_costly_entry_outlives_a_cheap_flood_but_not_forever():
    results = _cache(4)
    assert results.install("dear", _Entry(cost=10.0))
    lived = 0
    while "dear" in _keys(results):
        assert results.install(("cheap", lived), _Entry(cost=1.0))
        lived += 1
        assert lived < 100, "the costly entry never aged out"
    # LRU evicts it on the 4th install; here the clock, which the cheap
    # evictions move by about one cost per cache-full of installs, had to
    # pass it
    assert 30 <= lived <= 50
    assert results._clock >= 10.0


def test_cheap_answers_are_declined_until_the_clock_ages_the_dear_ones():
    results = _cache(4)
    for i in range(4):
        assert results.install(("dear", i), _Entry(cost=10.0))
    declined = 0
    for i in range(100):
        declined += not results.install(("cheap", i), _Entry(cost=1.0))
    # each decline moves the clock to the declined priority: after about
    # ten, a cheap answer ties the dear ones and the older entry goes
    assert 8 <= declined <= 12
    assert results.snapshot()[1]["admission_declines"] == declined
    assert not any(key[0] == "dear" for key in _keys(results))
    assert_filing_is_tight(results)


# --------------------------------------------------------------------------- #
# (3) the self-decline leaves nothing behind
# --------------------------------------------------------------------------- #
def _self_declines_keep_the_filing_tight(rng: random.Random) -> None:
    results = _cache(32, max_bytes=2000)
    versions = dict.fromkeys(TABLES, 0)
    for _ in range(5000):
        key = rng.randrange(300)
        roll = rng.random()
        if roll < 0.6:
            cost = rng.choice([1e-5, 1e-4, 1e-3]) * (1 + rng.random())
            results.install(key, _entry(rng, cost))
        elif roll < 0.8:
            results.lookup(key)
        elif roll < 0.9:
            table = rng.choice(TABLES)
            versions[table] += 1
            changed = {f"psi_{table}": [(rng.randrange(40),) for _ in range(3)]}
            results.apply_write(table, versions[table] - 1, versions[table], changed)
        elif roll < 0.95:
            table = rng.choice(TABLES)
            versions[table] += 1
            results.sweep(table, versions[table], "test")
        else:
            results.invalidate(key)
        assert _heap_is_bounded(results)
        assert_filing_is_tight(results)
    stats, own = results.snapshot()
    assert stats.evictions > 0 and stats.invalidations > 0
    assert own["admission_declines"] > 0, "no self-decline"


def test_self_declines_keep_the_filing_tight():
    _self_declines_keep_the_filing_tight(random.Random(21))


# --------------------------------------------------------------------------- #
# (4) TLC: the PARTIAL answer outlives the cheap covered ones
# --------------------------------------------------------------------------- #
@pytest.fixture
def tlc16():
    dataset = generate_tlc(1, 42)
    database = Database(dataset.database.schema, name=dataset.database.name)
    for table in dataset.database:
        database.table(table.schema.name).rows = list(table.rows)
    options = ExecutionOptions(parallelism=1, replicas=1, routing="static")
    with Session(
        database, tlc_access_schema(), options=options,
        server_options={"result_cache_entries": 16},
    ) as session:  # fmt: skip
        yield session, dataset.params


def _q11_outlives_covered_reads(session: Session, params) -> None:
    q11 = query_by_name(params, "Q11").sql
    assert session.run(q11).mode is ExecutionMode.PARTIAL
    session.run(q11)  # admitted on the second sighting
    q2 = query_by_name(params, "Q2").sql
    keys = session.database.table("call").project(["pnum", "date"], distinct=True)[:200]
    assert len(keys) == 200
    for read, (pnum, date) in enumerate(keys, 1):
        sql = q2.replace(params.p0, pnum).replace(params.d0, date)
        session.run(sql)
        session.run(sql)  # admitted: the cache is full from the 16th on
        if read % 20 == 0:  # more distinct answers than the cache holds
            assert session.run(q11).metrics.served_from_cache, f"Q11 evicted by read {read}"
    stats = session.stats()
    assert stats.result_entries == 16 and stats.result.evictions > 0
    assert stats.result_saved_s > 0


def test_a_q11_answer_stays_cached_across_200_covered_reads(tlc16):
    _q11_outlives_covered_reads(*tlc16)


# --------------------------------------------------------------------------- #
# (5) mutation: a constant cost fails (3) and (4)
# --------------------------------------------------------------------------- #
def test_flat_costs_fail_the_retention_checks(tlc16, monkeypatch):
    inner = ResultCache.install
    monkeypatch.setattr(
        ResultCache,
        "install",
        lambda self, key, entry: inner(self, key, replace(entry, cost=1e-4)),
    )
    with pytest.raises(AssertionError, match="no self-decline"):
        _self_declines_keep_the_filing_tight(random.Random(21))
    with pytest.raises(AssertionError, match="Q11 evicted by read 20"):
        _q11_outlives_covered_reads(*tlc16)


# --------------------------------------------------------------------------- #
# (6) the cost is persisted with the entry
# --------------------------------------------------------------------------- #
def test_an_entry_pickled_without_a_cost_loads_at_the_lowest_priority():
    entry = CachedResult(
        columns=["x"], rows=[(1,)], mode=ExecutionMode.BOUNDED, decision=None,
        schema_generation=0, tables=frozenset({"a"}), read_keys=(),
        coarse_tables=frozenset(), epochs=(0,), cost=0.5,
    )  # fmt: skip
    del entry.cost  # what an older results file holds
    assert pickle.loads(pickle.dumps(entry)).cost == 0.0


def test_the_cost_survives_a_restart():
    store_dir = tempfile.mkdtemp(prefix="beas-retention-")
    options = ExecutionOptions(
        storage="mmap", storage_dir=store_dir, parallelism=1, replicas=1,
        routing="static",
    )  # fmt: skip

    def open_session() -> Session:
        return Session(
            build_database(INITIAL),
            AccessSchema(constraints()),
            options=options,
            server_options={"result_cache_entries": 4},
        )

    dear = render("who", {"p": "100", "d": "2016-06-01"})
    cheap = [render("ids", {"p": p, "d": d}) for p in PNUMS for d in DATES] + [
        render("packages", {"p": p, "y": y}) for p in PNUMS for y in YEARS
    ]
    try:
        session = open_session()
        session.run(dear)
        session.run(dear)
        results = session.server.results
        ((key, entry),) = results.entries()
        assert results.install(key, replace(entry, cost=1.0))  # dear to recompute
        session.close()

        session = open_session()
        assert session.stats().storage.warm_start
        assert [(k, e.cost) for k, e in session.server.results.entries()] == [(key, 1.0)]
        for sql in cheap:
            session.run(sql)
            session.run(sql)
        stats = session.stats()
        assert stats.result.evictions > 0
        assert session.run(dear).metrics.served_from_cache
        session.close()
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

