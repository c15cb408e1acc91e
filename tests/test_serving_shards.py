"""Sharding primitives + the invalidation property.

The load-bearing test here is the **invalidation property**: after any
random mutation sequence through the serving layer,

* whatever the result cache serves equals a fresh execution (no stale
  entry survives), and
* every entry whose dependency tables were untouched by a mutation is
  still cached (no fresh entry is needlessly dropped).

(``tests/test_result_invalidation.py`` checks the finer half of the
contract — which answers on the *written* table survive.)

Plus focused coverage of the pieces: the reader/writer lock, the
striped cache, canonical shard ordering, the admission policy, and the
global-lock (``sharded=False``) degradation mode.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro import BEAS
from repro.errors import MaintenanceError, ServingError
from repro.serving import BEASServer, ShardLock, StripedCache, TableShard
from repro.serving.shard import order_shards

from tests.conftest import (
    EXAMPLE2_SQL,
    example1_access_schema,
    example1_database,
)

CALL_SQL = (
    "SELECT DISTINCT recnum, region FROM call "
    "WHERE pnum = '100' AND date = '2016-06-01'"
)
PACKAGE_SQL = "SELECT pid FROM package WHERE pnum = '100' AND year = 2016"
BUSINESS_SQL = (
    "SELECT business.pnum FROM business WHERE business.type = 'bank' "
    "AND business.region = 'east'"
)


@pytest.fixture
def server():
    with BEAS(example1_database(), example1_access_schema()) as beas:
        yield beas.session().server


# --------------------------------------------------------------------------- #
# the reader/writer lock
# --------------------------------------------------------------------------- #
class TestShardLock:
    def test_readers_are_concurrent(self):
        lock = ShardLock("t")
        inside = threading.Barrier(3, timeout=10)

        def read() -> None:
            with lock.read():
                inside.wait()  # all three must be inside simultaneously

        threads = [threading.Thread(target=read) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert all(not t.is_alive() for t in threads)
        assert lock.stats.read_acquisitions == 3

    def test_writer_excludes_readers_and_is_counted(self):
        lock = ShardLock("t")
        order: list[str] = []
        lock.acquire_write()

        def read() -> None:
            with lock.read():
                order.append("reader")

        thread = threading.Thread(target=read)
        thread.start()
        time.sleep(0.05)
        order.append("writer-release")
        lock.release_write()
        thread.join(timeout=10)
        assert order == ["writer-release", "reader"]
        assert lock.stats.contended_acquisitions == 1
        assert lock.stats.read_wait_seconds > 0

    def test_waiting_writer_blocks_new_readers(self):
        """Writer preference: a steady read stream cannot starve writes."""
        lock = ShardLock("t")
        lock.acquire_read()
        got_write = threading.Event()
        got_second_read = threading.Event()

        writer = threading.Thread(
            target=lambda: (lock.acquire_write(), got_write.set(),
                            lock.release_write()),
        )
        writer.start()
        time.sleep(0.05)  # writer is now queued
        reader = threading.Thread(
            target=lambda: (lock.acquire_read(), got_second_read.set(),
                            lock.release_read()),
        )
        reader.start()
        time.sleep(0.05)
        assert not got_second_read.is_set()  # parked behind the writer
        lock.release_read()
        writer.join(timeout=10)
        reader.join(timeout=10)
        assert got_write.is_set() and got_second_read.is_set()


class TestStripedCache:
    def test_round_trip_and_aggregated_stats(self):
        cache = StripedCache("d", max_entries=64, stripes=4)
        for i in range(20):
            cache.put(f"k{i}", i)
        assert cache.get("k3") == 3
        assert cache.get("nope") is None
        stats = cache.stats()
        assert stats.name == "d"
        assert stats.hits == 1 and stats.misses == 1
        assert len(cache) == 20
        assert cache.invalidate_all() == 20

    def test_single_stripe_degrades_cleanly(self):
        cache = StripedCache("d", max_entries=2, stripes=1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert len(cache) == 2  # LRU budget enforced
        assert cache.stats().evictions == 1

    def test_stripes_must_be_positive(self):
        with pytest.raises(ValueError):
            StripedCache("d", max_entries=8, stripes=0)


class TestShardOrdering:
    def test_canonical_order_and_dedup(self):
        shards = [
            TableShard(name, result_entries=4, result_bytes=None)
            for name in ("call", "business", "call", "package")
        ]
        ordered = order_shards(shards)
        assert [s.table for s in ordered] == ["business", "call", "package"]

    def test_server_rejects_unknown_admission(self):
        beas = BEAS(example1_database(), example1_access_schema())
        with pytest.raises(ServingError):
            BEASServer(beas, result_admission="sometimes")


# --------------------------------------------------------------------------- #
# admission policy: admit-on-second-hit
# --------------------------------------------------------------------------- #
class TestAdmissionPolicy:
    def test_once_seen_is_not_cached_twice_seen_is(self, server):
        server.execute(CALL_SQL)
        stats = server.stats()
        assert stats.result_entries == 0  # one-off: doorkeeper only
        assert stats.admission_declines == 1

        server.execute(CALL_SQL)
        stats = server.stats()
        assert stats.result_entries == 1  # second sighting admits
        assert server.execute(CALL_SQL).metrics.served_from_cache

    def test_one_off_queries_do_not_churn_the_lru(self):
        """A scan of distinct one-off queries must not evict the hot
        entry — the ROADMAP's cache-churn complaint."""
        beas = BEAS(example1_database(), example1_access_schema())
        server = beas.session(result_cache_entries=8, sharded=True).server
        server.execute(CALL_SQL)
        server.execute(CALL_SQL)  # admitted
        assert server.execute(CALL_SQL).metrics.served_from_cache

        for day in range(2, 28):  # 26 distinct one-offs through one shard
            server.execute(CALL_SQL.replace("2016-06-01", f"2016-06-{day:02d}"))
        stats = server.stats()
        assert stats.result.evictions == 0
        assert stats.admission_declines >= 26
        assert server.execute(CALL_SQL).metrics.served_from_cache

    def test_always_policy_restores_eager_admission(self):
        beas = BEAS(example1_database(), example1_access_schema())
        server = beas.session(result_admission="always").server
        server.execute(CALL_SQL)
        assert server.execute(CALL_SQL).metrics.served_from_cache
        assert server.stats().admission_declines == 0
        # the doorkeeper is bypassed entirely: no unbounded key log
        for day in range(2, 10):
            server.execute(CALL_SQL.replace("2016-06-01", f"2016-06-{day:02d}"))
        assert server.results._doorkeeper is None

    def test_readmission_after_invalidation_is_immediate(self, server):
        """A recurring query's entry dies with its table version; the
        recompute is admitted at once (the key is already known)."""
        server.execute(CALL_SQL)
        server.execute(CALL_SQL)  # admitted
        server.insert("call", [(901, "100", "991", "2016-06-01", "mesa")])
        recomputed = server.execute(CALL_SQL)
        assert not recomputed.metrics.served_from_cache
        assert server.execute(CALL_SQL).metrics.served_from_cache


# --------------------------------------------------------------------------- #
# the shard-invalidation property
# --------------------------------------------------------------------------- #
def _assert_invariant(server: BEASServer) -> int:
    """No surviving entry is stale: each was cached under the live
    schema generation, and whatever the cache serves for a pool query
    equals a fresh execution; returns the number of live entries."""
    generation = server.beas.catalog.schema_generation
    entries = server.results.entries()
    for key, entry in entries:
        assert entry.schema_generation == generation, key
    for sql, _ in QUERY_POOL:
        served = server.execute(sql)
        if served.metrics.served_from_cache:
            fresh = server.execute(sql, use_result_cache=False)
            assert sorted(served.rows) == sorted(fresh.rows), (
                f"stale entry survived: {sql[:60]}"
            )
    return len(entries)


MUTATIONS = {
    "call": lambda i: [(40_000 + i, "100", f"m{i}", "2016-06-01", "cove")],
    "package": lambda i: [
        (41_000 + i, f"6{i:03d}", "c0", "2016-01-01", "2016-12-31", 2016)
    ],
    "business": lambda i: [(f"5{i:03d}", "cafe", "north")],
}
QUERY_POOL = [
    (CALL_SQL, frozenset({"call"})),
    (PACKAGE_SQL, frozenset({"package"})),
    (BUSINESS_SQL, frozenset({"business"})),
    (EXAMPLE2_SQL, frozenset({"call", "package", "business"})),
    (
        "SELECT call.region, business.type FROM call, business "
        "WHERE call.pnum = business.pnum AND call.date = '2016-06-01'",
        frozenset({"call", "business"}),
    ),
]


@pytest.mark.parametrize("seed", range(6))
def test_shard_invalidation_property(seed: int, server):
    """After any mutation sequence: no stale entry survives, and no
    entry on untouched tables is evicted."""
    rng = random.Random(313_000 + seed)
    for sql, _ in QUERY_POOL:  # two sightings: everything admitted
        server.execute(sql)
        server.execute(sql)
    assert _assert_invariant(server) == len(QUERY_POOL)

    for step in range(30):
        roll = rng.random()
        if roll < 0.45:
            table = rng.choice(list(MUTATIONS))
            # re-prime: one sighting readmits anything invalidated earlier
            # (the doorkeeper already knows every pool key)
            for sql, _ in QUERY_POOL:
                server.execute(sql)
            survivors_expected = {
                sql for sql, deps in QUERY_POOL if table not in deps
            }
            try:
                if rng.random() < 0.3:
                    live = server.database.table(table)
                    if live.rows:
                        server.delete(table, [rng.choice(live.rows)])
                else:
                    server.insert(table, MUTATIONS[table](step + seed * 100))
            except MaintenanceError:
                pass
            # no needless eviction: untouched-table entries still hit
            for sql in survivors_expected:
                cached = server.execute(sql)
                assert cached.metrics.served_from_cache, (
                    f"entry for untouched tables was evicted after "
                    f"mutating {table}: {sql[:60]}"
                )
        else:
            sql, _ = rng.choice(QUERY_POOL)
            server.execute(sql)
        _assert_invariant(server)

    # repopulate and do a final sweep over every entry
    for sql, _ in QUERY_POOL:
        server.execute(sql)
        server.execute(sql)
    assert _assert_invariant(server) == len(QUERY_POOL)
    assert server.stats().result.evictions == 0  # capacity never the cause


def test_rejected_batch_still_invalidates_dependents(server):
    """A REJECTed (rolled-back) insert bumps Table.version, so cached
    entries over that table must still be dropped — conservatively."""
    server.execute(PACKAGE_SQL)
    server.execute(PACKAGE_SQL)  # admitted
    violating = [
        (300 + i, "100", f"c{i}", "2016-01-01", "2016-12-31", 2016)
        for i in range(13)  # psi2 allows 12 per (pnum, year)
    ]
    with pytest.raises(MaintenanceError):
        server.insert("package", violating)
    after = server.execute(PACKAGE_SQL)
    assert not after.metrics.served_from_cache
    _assert_invariant(server)


def test_global_lock_mode_still_correct(server):
    """sharded=False maps every table onto one shard: same contract,
    one lock — the benchmark baseline."""
    beas = BEAS(example1_database(), example1_access_schema())
    baseline = BEASServer(beas, sharded=False)
    assert not baseline.sharded
    assert baseline.shard("call") is baseline.shard("package")
    baseline.execute(CALL_SQL)
    baseline.execute(CALL_SQL)
    baseline.execute(PACKAGE_SQL)
    baseline.execute(PACKAGE_SQL)
    assert baseline.execute(CALL_SQL).metrics.served_from_cache
    baseline.insert("call", [(902, "100", "992", "2016-06-01", "dune")])
    assert not baseline.execute(CALL_SQL).metrics.served_from_cache
    assert baseline.execute(PACKAGE_SQL).metrics.served_from_cache
    _assert_invariant(baseline)


def test_unknown_table_requests_leave_no_phantom_shard(server):
    from repro.errors import UnknownTableError

    before = set(server.shards())
    with pytest.raises(UnknownTableError):
        server.insert("nosuch", [(1, "x")])
    with pytest.raises(UnknownTableError):
        server.execute("SELECT x FROM nosuch2")
    after = server.stats()
    assert set(server.shards()) == before
    assert "nosuch" not in after.shards and "nosuch2" not in after.shards
    assert all(s.maintenance_batches == 0 for s in after.shards.values())


def test_multi_shard_read_is_consistent_vector(server):
    """A join's metrics carry one version per dependency table, read
    under simultaneously-held read locks."""
    result = server.execute(EXAMPLE2_SQL)
    versions = result.metrics.table_versions
    assert set(versions) == {"call", "package", "business"}
    for table, version in versions.items():
        assert version == server.database.table(table).version
