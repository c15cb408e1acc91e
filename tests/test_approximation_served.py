"""Resource-bounded approximation through the served path.

A Session with ``approximate_over_budget=True`` answers a covered query
whose access bound is over the budget with the bounded plan run under a
tuple budget: ``BoundedApproximator`` over the BE Plan Executor's row
pipeline, the pinned plan with a rebound request's constant vector.
Over seeded random instances, for a fresh and a rebound binding of each
template and every budget from 0 to the exact run's ``tuples_fetched``:

* the rows are a subset of the exact answer;
* ``tuples_fetched <= budget``;
* ``len(exact - found) <= missed_bound``;
* ``complete`` holds iff no key was dropped, i.e. iff the run fetched
  all the exact run fetched (a dropped key's bucket is never empty, and
  every fetch after it sees no more input than the exact run's);
* the run records the exact run's operations, and a complete one the
  exact run's per-operation counts;
* a rebound answer equals a fresh decision's at the same binding.

Two templates: an IN-list slot feeding a chain fetch whose Y overlaps a
column the first fetch materialised (``y_existing``), and Example 1's
three-relation join. ``BEAS_FUZZ_SEEDS`` sets the seed count.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    AccessConstraint,
    AccessSchema,
    BEAS,
    Database,
    DatabaseSchema,
    DataType,
    TableSchema,
)
from repro.beas.result import ExecutionMode
from repro.bounded.skeleton import skeleton_of
from repro.config import env_fuzz_seeds

from tests.conftest import example1_access_schema
from tests.test_fuzz_differential import DATES, REGIONS, TYPES, random_example1_db

#: anchor b -> a exposes r's key, then chain a -> (b, c) fetches the
#: rest by it: the chain's b is already materialised (y_existing)
CHAIN_SCHEMA = [
    AccessConstraint("r", ["b"], ["a"], 20, name="anchor"),
    AccessConstraint("r", ["a"], ["b", "c"], 1, name="chain"),
]
B_VALUES = [f"b{i}" for i in range(6)]


def chain_db(rng: random.Random) -> Database:
    """Twenty rows keyed by ``a``, ``b`` and ``c`` drawn at random."""
    db = Database(
        DatabaseSchema(
            [
                TableSchema(
                    "r", [(name, DataType.STRING) for name in "abc"], keys=[("a",)]
                )
            ]
        )
    )
    for i in range(20):
        db.insert("r", (f"a{i}", rng.choice(B_VALUES), f"c{rng.randint(0, 6)}"))
    return db


def chain_sql(rng: random.Random) -> str:
    first, second = rng.sample(B_VALUES, 2)
    return f"SELECT DISTINCT r.c FROM r WHERE r.b IN ('{first}', '{second}')"


def join_sql(rng: random.Random) -> str:
    return (
        "SELECT DISTINCT call.recnum, call.region FROM call, business "
        f"WHERE business.type = '{rng.choice(TYPES)}' "
        f"AND business.region = '{rng.choice(REGIONS)}' "
        f"AND business.pnum = call.pnum AND call.date = '{rng.choice(DATES)}'"
    )


def _profile(metrics):
    return [(op.label, op.tuples_in, op.tuples_out) for op in metrics.operations]


def _labels(metrics):
    return [op.label for op in metrics.operations]


def served_fresh(db: Database, access: AccessSchema, sql: str, budget: int):
    """``sql`` served under ``budget`` as a new engine's first request:
    a fresh decision."""
    with BEAS(db, access) as beas:
        result = beas.session().run(
            sql, budget=budget, approximate_over_budget=True
        )
    assert result.decision.provenance == "fresh"
    return result


def assert_sound(result, exact) -> bool:
    """The approximation's guarantees against the exact run; whether the
    budget sent it down the approximate route at all."""
    budget = result.options.budget
    if result.decision.access_bound <= budget:
        assert result.mode is ExecutionMode.BOUNDED
        return False
    assert result.mode is ExecutionMode.APPROXIMATE
    approx = result.approximation
    assert approx is not None and result.rows == approx.rows
    expected, found = set(exact.rows), set(approx.rows)
    exact_fetched = exact.metrics.tuples_fetched
    assert found <= expected, budget
    assert approx.tuples_fetched == result.metrics.tuples_fetched <= budget
    assert len(expected - found) <= approx.missed_bound, budget
    assert approx.complete == (approx.tuples_fetched == exact_fetched)
    assert approx.complete == (budget >= exact_fetched)
    if approx.complete:
        assert found == expected and approx.missed_bound == 0
        assert _profile(approx.metrics) == _profile(exact.metrics)
    else:
        assert approx.missed_bound > 0
    # the budgeted run records every operation the exact one does
    assert _labels(approx.metrics) == _labels(exact.metrics)
    return True


CASES = [
    ("chain", chain_db, AccessSchema(CHAIN_SCHEMA), chain_sql),
    ("join", random_example1_db, example1_access_schema(), join_sql),
]


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
@pytest.mark.parametrize("seed", range(env_fuzz_seeds(4)))
def test_rebound_approximations_equal_fresh_ones(case, seed: int):
    _, make_db, access, make_sql = case
    rng = random.Random(616_000 + seed)
    db = make_db(rng)
    first, *later = [make_sql(rng) for _ in range(3)]
    approximated = 0
    with BEAS(db, access) as beas:
        session = beas.session()
        assert session.run(first).decision.provenance == "fresh"
        # every later binding of the shape, the first one again included,
        # is rebound onto the pinned plan
        for sql in [first, *later]:
            exact = session.run(sql, use_result_cache=False)
            assert exact.mode is ExecutionMode.BOUNDED
            for budget in range(exact.metrics.tuples_fetched + 1):
                rebound = session.run(
                    sql, budget=budget, approximate_over_budget=True
                )
                assert rebound.decision.provenance == "rebound"
                fresh = served_fresh(db, access, sql, budget)
                approximated += assert_sound(rebound, exact)
                assert assert_sound(fresh, exact) == (rebound.mode is fresh.mode)
                assert fresh.mode is rebound.mode
                if fresh.approximation is None:
                    continue
                ours, theirs = rebound.approximation, fresh.approximation
                assert ours.columns == theirs.columns
                assert ours.rows == theirs.rows, (sql, budget)
                assert ours.tuples_fetched == theirs.tuples_fetched
                assert ours.complete == theirs.complete
                assert ours.missed_bound == theirs.missed_bound
                assert ours.recall_lower_bound == theirs.recall_lower_bound
                assert _profile(ours.metrics) == _profile(theirs.metrics)
    assert approximated > 0


def test_the_chain_template_takes_the_paths_under_test():
    """Its slot is an IN list, and its second fetch filters on a column
    the first one materialised."""
    db = chain_db(random.Random(1))
    with BEAS(db, AccessSchema(CHAIN_SCHEMA)) as beas:
        plan = beas.check(chain_sql(random.Random(2))).plan
    assert [op.constraint.name for op in plan.fetch_ops] == ["anchor", "chain"]
    assert len(plan.fetch_ops[0].key_parts[0].values) == 2
    chain = plan.ops.index(plan.fetch_ops[1])
    assert skeleton_of(plan).steps[chain].y_existing
