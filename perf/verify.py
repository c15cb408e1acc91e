"""Correctness checks the benchmark runs on the program's own answers.

Any miss found here is a failed operation: it lands in ``failed`` /
``fail_share`` and makes the run exit non-zero.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Mapping, Sequence

from repro import ConventionalEngine

from perf.workloads import Op, Template


def sample_reads(ops: Sequence[Op], label: str, count: int) -> list[Op]:
    """A seeded sample of ``count`` read ops from the stream."""
    reads = [op for op in ops if op[0] in ("bind", "sql")]
    rng = random.Random(f"verify:{label}")
    return rng.sample(reads, min(count, len(reads)))


def wrong_answers(
    session, templates: Mapping[str, Template], reads: Sequence[Op]
) -> int:
    """Re-run ``reads`` through the session and through a
    ``ConventionalEngine`` over the same live tables (no write happens in
    between, so both see one table-version vector); count mismatches.
    Row bags must be equal when the decision is bag-exact, row sets
    otherwise — the contract ``tests/test_tlc_workload.py`` holds the
    engine to."""
    oracle = ConventionalEngine(session.database)
    wrong = 0
    for kind, target, payload, _ in reads:
        if kind == "bind":
            query = session.query(templates[target].sql).bind(payload)
            mine = query.run()
            statement = (
                session.server.prepare(templates[target].sql)
                .binding(payload)
                .statement
            )
        else:
            mine = session.run(payload)
            statement = payload
        theirs = oracle.execute(statement)
        if mine.decision.bag_exact:
            same = Counter(mine.rows) == Counter(theirs.rows)
        else:
            same = set(mine.rows) == set(theirs.rows)
        if not same:
            wrong += 1
    return wrong


def lost_writes(reopened_database, expected_database, tables: Sequence[str]) -> int:
    """Rows of ``tables`` that differ between the database the closed
    session acknowledged writes into and the one recovered from its store
    (bag difference, both directions), plus version-vector mismatches."""
    lost = 0
    for name in tables:
        expected = expected_database.table(name)
        recovered = reopened_database.table(name)
        want, got = Counter(expected.rows), Counter(recovered.rows)
        lost += sum(((want - got) + (got - want)).values())
        if expected.version != recovered.version:
            lost += 1
    return lost
