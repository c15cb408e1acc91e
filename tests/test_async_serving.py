"""The asyncio front end (``AsyncBEASServer``).

Covers: concurrent clients multiplexing onto the bounded pool, the
per-table maintenance queues (FIFO per table, parallel across tables,
batched draining), error relay for rejected batches, admission control
accounting, and clean shutdown.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro import BEAS
from repro.errors import MaintenanceError, ServingError
from repro.serving import AsyncBEASServer

from tests.conftest import example1_access_schema, example1_database

CALL_SQL = (
    "SELECT DISTINCT recnum, region FROM call "
    "WHERE pnum = '100' AND date = '2016-06-01'"
)
PACKAGE_SQL = "SELECT pid FROM package WHERE pnum = '100' AND year = 2016"


def run(coro):
    return asyncio.run(coro)


def make_beas() -> BEAS:
    return BEAS(example1_database(), example1_access_schema())


# --------------------------------------------------------------------------- #
def test_gathered_clients_share_the_caches():
    # parallelism pinned to 1: with an engine pool the 12 clients overlap
    # for real, so how many of them race past the second-hit admission
    # before the first answer lands becomes timing-dependent
    beas = BEAS(
        example1_database(), example1_access_schema(), parallelism=1
    )

    async def scenario():
        async with beas.session().serve_async(max_workers=4) as aserver:
            results = await asyncio.gather(
                *(aserver.execute(CALL_SQL) for _ in range(12))
            )
            stats = await aserver.stats()
            return results, stats

    results, stats = run(scenario())
    expected = Counter(results[0].rows)
    assert all(Counter(r.rows) == expected for r in results)
    assert stats.serving.executions == 12
    assert sum(1 for r in results if r.metrics.served_from_cache) >= 9
    assert stats.workers == 4
    assert stats.peak_in_flight >= 1


def test_prepare_and_execute_prepared():
    async def scenario():
        async with make_beas().session().serve_async() as aserver:
            prepared = await aserver.prepare(CALL_SQL, name="q")
            first = await aserver.execute_prepared("q")
            rebound = await aserver.execute_prepared(
                prepared, {"call.date": "2016-06-02"}
            )
            decision = await aserver.check(CALL_SQL)
            return first, rebound, decision

    first, rebound, decision = run(scenario())
    assert first.rows and decision.covered
    assert set(rebound.rows) != set(first.rows)


def test_maintenance_queue_preserves_per_table_fifo_order():
    async def scenario():
        beas = make_beas()
        async with AsyncBEASServer(beas.session().server, max_workers=2) as aserver:
            row = (7_000, "100", "fifo", "2016-06-01", "bay")
            batches = await asyncio.gather(
                aserver.insert("call", [row]),
                aserver.delete("call", [row]),
                aserver.insert("call", [row]),
                aserver.insert("package", [
                    (7_001, "104", "c9", "2016-01-01", "2016-12-31", 2016)
                ]),
            )
            stats = await aserver.stats()
            return beas, batches, stats

    beas, batches, stats = run(scenario())
    # FIFO per table: insert -> delete -> insert nets exactly one copy
    calls = [r for r in beas.database.table("call").rows if r[2] == "fifo"]
    assert len(calls) == 1
    assert [b.table for b in batches] == ["call", "call", "call", "package"]
    assert [b.table_version for b in batches[:3]] == sorted(
        b.table_version for b in batches[:3]
    )
    assert stats.drained_jobs == 4
    assert stats.drained_batches <= 4  # pending jobs coalesce into passes


def test_rejected_batch_raises_for_its_caller_only():
    async def scenario():
        async with make_beas().session().serve_async() as aserver:
            violating = [
                (300 + i, "100", f"c{i}", "2016-01-01", "2016-12-31", 2016)
                for i in range(13)  # psi2 allows 12 per (pnum, year)
            ]
            ok_row = [(7_100, "104", "c5", "2016-01-01", "2016-12-31", 2016)]
            outcomes = await asyncio.gather(
                aserver.insert("package", violating),
                aserver.insert("package", ok_row),
                return_exceptions=True,
            )
            follow_up = await aserver.execute(PACKAGE_SQL)
            return outcomes, follow_up

    outcomes, follow_up = run(scenario())
    assert isinstance(outcomes[0], MaintenanceError)
    assert not isinstance(outcomes[1], Exception)
    assert outcomes[1].inserted == 1
    assert follow_up.rows  # the server is still healthy


def test_interleaved_queries_and_maintenance_stay_fresh():
    async def scenario():
        async with make_beas().session().serve_async(max_workers=3) as aserver:
            await aserver.execute(CALL_SQL)
            await aserver.execute(CALL_SQL)  # admitted

            async def client(i: int):
                return await aserver.execute(CALL_SQL)

            inserted = aserver.insert(
                "call", [(7_200, "100", "async", "2016-06-01", "reef")]
            )
            answers, batch = await asyncio.gather(
                asyncio.gather(*(client(i) for i in range(8))), inserted
            )
            final = await aserver.execute(CALL_SQL)
            return answers, batch, final

    answers, batch, final = run(scenario())
    assert batch.inserted == 1
    assert ("async", "reef") in final.rows
    new_version = batch.table_version
    for result in answers:  # snapshots are pre- or post-batch, never torn
        version = result.metrics.table_versions["call"]
        has_row = ("async", "reef") in result.rows
        assert has_row == (version >= new_version)


def test_closed_server_refuses_work():
    async def scenario():
        aserver = make_beas().session().serve_async()
        await aserver.aclose()
        with pytest.raises(ServingError):
            await aserver.execute(CALL_SQL)
        with pytest.raises(ServingError):
            await aserver.insert("call", [])

    run(scenario())


def test_queries_parked_on_admission_fail_cleanly_at_close():
    """Tasks queued behind the admission semaphore when aclose() runs get
    the documented ServingError, not the pool's raw RuntimeError."""

    async def scenario():
        aserver = make_beas().session().serve_async(max_workers=2, admission_limit=2)
        tasks = [
            asyncio.create_task(aserver.execute(CALL_SQL)) for _ in range(12)
        ]
        await asyncio.sleep(0)  # let them reach the semaphore
        await aserver.aclose()
        return await asyncio.gather(*tasks, return_exceptions=True)

    outcomes = run(scenario())
    for outcome in outcomes:
        assert not isinstance(outcome, RuntimeError), outcome
        assert isinstance(outcome, (ServingError,)) or hasattr(
            outcome, "rows"
        ), outcome


def test_stats_describe_mentions_front_end_and_shards():
    async def scenario():
        async with make_beas().session().serve_async(max_workers=2) as aserver:
            await aserver.execute(CALL_SQL)
            await aserver.insert(
                "call", [(7_300, "100", "desc", "2016-06-01", "cape")]
            )
            return await aserver.stats()

    stats = run(scenario())
    text = stats.describe()
    for label in ("async front end:", "workers:", "maintenance queues:",
                  "serving stats:", "shard call:"):
        assert label in text
