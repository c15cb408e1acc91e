"""A partially bounded plan's residual is compiled once, with the plan.

TLC's Q11 is not covered: a psi3 prefix on ``business``, then a residual
that probes ``data_usage``'s key index on ``pnum``. Once its template is
pinned, a rebound binding runs the pinned prefix and the pinned
:class:`~repro.bounded.residual.Residual` off its constant vector. So
48 rebound bindings compile no predicate, plan no query, and build no
table, database or prepared tail; and the residual listing ``explain``
prints names the operations those requests record, in order.
"""

from __future__ import annotations

import re
import sys
from collections import Counter

import pytest

from repro import BEAS
from repro.beas.result import ExecutionMode
from repro.engine import expressions, planner
from repro.engine.physical import PreparedTail
from repro.storage.database import Database
from repro.storage.table import Table
from repro.workloads.tlc import generate_tlc, tlc_access_schema, tlc_queries

from tests.reference_evaluator import reference_execute

BINDINGS = 48


@pytest.fixture(scope="module")
def tlc():
    return generate_tlc(3, 42)


def q11_bindings(database) -> list[dict]:
    """``BINDINGS`` distinct (type, region, month) bindings of Q11."""
    pairs = database.table("business").project(["type", "region"], distinct=True)
    months = sorted(
        row[0] for row in database.table("data_usage").project(["month"], distinct=True)
    )
    every = [
        {"b.type": kind, "b.region": region, "d.month": month}
        for month in months
        for kind, region in pairs
    ]
    assert len(every) >= BINDINGS + 1
    return every[: BINDINGS + 1]


@pytest.fixture
def compile_calls(monkeypatch):
    """Calls of what a per-request residual would pay for, by name."""
    calls: Counter = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    # a function is counted wherever a module imported it by name
    for name, function in (
        ("compile_predicate", expressions.compile_predicate),
        ("plan_conjunctive_query", planner.plan_conjunctive_query),
    ):
        wrapper = counted(name, function)
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and getattr(module, name, None) is function
            ):
                monkeypatch.setattr(module, name, wrapper)
    trusted = Table.from_trusted_rows.__func__
    monkeypatch.setattr(
        Table,
        "from_trusted_rows",
        classmethod(counted("Table.from_trusted_rows", trusted)),
    )
    for cls in (Database, PreparedTail):
        init = counted(f"{cls.__name__}.__init__", cls.__init__)
        monkeypatch.setattr(cls, "__init__", init)
    return calls


def test_rebound_requests_compile_nothing(tlc, compile_calls):
    database, params = tlc.database, tlc.params
    bindings = q11_bindings(database)
    with BEAS(database, tlc_access_schema()) as beas:
        query = beas.session().query(tlc_queries(params)[10].sql)
        first = query.bind(bindings[0]).run(use_result_cache=False)
        assert first.mode is ExecutionMode.PARTIAL
        assert first.decision.provenance == "fresh"
        compile_calls.clear()
        results = []
        for binding in bindings[1:]:
            result = query.bind(binding).run(use_result_cache=False)
            assert result.mode is ExecutionMode.PARTIAL
            assert result.decision.provenance == "rebound"
            results.append((binding, result))
        counts = dict(compile_calls)
    assert len(results) == BINDINGS
    assert counts == {}, counts
    # the answers are the reference evaluator's, as bags
    everything = reference_execute(
        database,
        "select distinct b.type, b.region, d.month, d.app_category "
        "from data_usage d, business b where d.pnum = b.pnum",
    )
    for binding, result in results:
        expected = Counter(
            (category,)
            for kind, region, month, category in everything
            if (kind, region, month) == tuple(binding.values())
        )
        assert Counter(result.rows) == expected, binding


def test_explain_lists_the_steps_a_rebound_request_runs(tlc):
    database, params = tlc.database, tlc.params
    bindings = q11_bindings(database)[:3]
    with BEAS(database, tlc_access_schema()) as beas:
        query = beas.session().query(tlc_queries(params)[10].sql)
        query.bind(bindings[0]).run(use_result_cache=False)  # pins the template
        for binding in bindings[1:]:
            bound = query.bind(binding)
            result = bound.run(use_result_cache=False)
            assert result.decision.provenance == "rebound"
            listing = bound.explain()
            residual = listing.split("residual plan")[1].split("host plan:")[0]
            steps = [line.strip() for line in residual.splitlines()[1:] if line.strip()]
            labels = [op.label for op in result.metrics.operations]
            ran = labels[labels.index("scan(__bounded__ as __bounded__)") :]
            # one listed step per recorded operation, in order and kind
            assert [step.split()[0].lower() for step in steps] == [
                re.match(r"[a-z]+", label).group() for label in ran
            ]
            for step, label in zip(steps, ran):
                if step.startswith(("Scan", "Probe")):
                    table, binding_name = step.split()[1], step.split()[3]
                    assert f"({table} as {binding_name}" in label
            assert f"d.month = {binding['d.month']}" in steps[1]
            assert steps[1].startswith("Probe data_usage AS d on (pnum)")
