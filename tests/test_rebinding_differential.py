"""Rebinding differential suite: rebound plans ≡ freshly decided plans.

The serving layer pins one decision per (template fingerprint, arity
signature) and *rebinds* it for every later equal-signature binding by
patching the plan's constant key parts — zero BE Checker runs
(``src/repro/bounded/rebind.py``). This suite locks that mechanic to a
fresh-decision oracle over >= 100 seeded (query, binding-stream)
scenarios:

* **exact row order** — not just set equality;
* **exact ``tuples_fetched``** and per-fetch-op accounting (operation
  label, tuples in, tuples out) — the §3 bound arithmetic must be
  byte-identical under rebinding;
* **checker-invocation counters** — equal-arity rebinds perform zero
  checker runs; arity, type-class, and NULL changes re-check (or are
  rejected outright).
"""

from __future__ import annotations

import random

import pytest

from repro import BEAS, Decision, Session
from repro.errors import BudgetExceededError, ServingError
from repro.serving.params import extract_slots, resolve_overrides, substitute
from repro.sql.printer import to_sql

from tests.conftest import example1_access_schema, example1_database

# --------------------------------------------------------------------------- #
# templates: every one is covered by the example-1 access schema A0
# --------------------------------------------------------------------------- #
TEMPLATES = {
    "join3": """
        select call.region
        from call, package, business
        where business.type = 'bank' and business.region = 'east'
          and business.pnum = call.pnum and call.date = '2016-06-01'
          and call.pnum = package.pnum and package.year = 2016
          and package.start <= '2016-06-01' and package.end >= '2016-06-01'
          and package.pid = 'c0'
    """,
    "single": """
        select recnum, region from call
        where pnum = '100' and date = '2016-06-01'
    """,
    "distinct": """
        select distinct region from call
        where pnum = '100' and date = '2016-06-01'
    """,
    "inlist": """
        select recnum from call
        where pnum in ('100', '101') and date = '2016-06-01'
    """,
    "join2": """
        select b.pnum, c.region
        from business b, call c
        where b.type = 'bank' and b.region = 'east'
          and b.pnum = c.pnum and c.date = '2016-06-01'
    """,
    # two slots in ONE equality class: their values intersect, so the
    # merged per-class arity can change even at equal per-slot arity —
    # this template exercises the rebinder's merged-arity guard fallback
    "shared-class": """
        select c.region
        from call c, business b
        where c.pnum = '100' and b.pnum = '100' and c.pnum = b.pnum
          and b.type = 'bank' and b.region = 'east'
          and c.date = '2016-06-01'
    """,
}

#: Value pools per slot (drawn seeded; scalars keep the pinned arity).
VALUE_POOLS = {
    "call.date": [f"2016-06-0{d}" for d in range(1, 8)],
    "c.date": [f"2016-06-0{d}" for d in range(1, 8)],
    "call.pnum": ["100", "101", "102", "103"],
    "c.pnum": ["100", "101", "102", "103"],
    "b.pnum": ["100", "101", "102", "103"],
    "business.type": ["bank", "shop", "lab"],
    "b.type": ["bank", "shop", "lab"],
    "business.region": ["east", "west", "north"],
    "b.region": ["east", "west", "north"],
    "package.year": [2015, 2016, 2017],
    "package.pid": ["c0", "c1", "c2"],
}

SEEDS = range(18)
BINDINGS_PER_STREAM = 5


@pytest.fixture(scope="module")
def rig():
    """One shared database; independent engines for oracle and serving
    (the oracle's checker runs must not pollute the session's counter)."""
    db = example1_database()
    schema = example1_access_schema()
    with BEAS(db, schema) as oracle, BEAS(db, schema) as engine:
        yield oracle, Session(beas=engine)


def _binding_stream(template_key: str, slots, seed: int) -> list[dict]:
    """A seeded stream of bindings over the template's slots."""
    rng = random.Random((hash(template_key) & 0xFFFF) * 1000 + seed)
    names = sorted(slots)
    stream = []
    for _ in range(BINDINGS_PER_STREAM):
        overridden = rng.sample(names, k=rng.randint(1, len(names)))
        binding = {}
        for name in overridden:
            pool = VALUE_POOLS[name]
            if slots[name].kind == "in":
                # keep the pinned arity: the template's own IN-list size
                binding[name] = rng.sample(pool, k=len(slots[name].values))
            else:
                binding[name] = rng.choice(pool)
        stream.append(binding)
    return stream


def _execution_profile(metrics):
    """The execution-relevant accounting (cache counters excluded)."""
    return (
        metrics.tuples_fetched,
        metrics.tuples_scanned,
        metrics.intermediate_rows,
        [(op.label, op.tuples_in, op.tuples_out) for op in metrics.operations],
    )


@pytest.mark.parametrize("form", ["bind", "text"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("template_key", sorted(TEMPLATES))
def test_rebound_equals_fresh_decision(rig, template_key, seed, form):
    """>= 100 scenarios: serving (rebound or cached decisions) must match
    a fresh BE Checker decision + execution for every binding, exactly,
    whether the binding arrives as overrides of a prepared handle or as
    ad-hoc SQL text with the constants inline."""
    oracle, session = rig
    sql = TEMPLATES[template_key]
    query = session.query(sql, name=f"{template_key}")
    slots = query.slots
    assert slots, f"template {template_key} has no parameterisable slots"

    oracle_slots = extract_slots(
        query._prepared.statement, oracle.database.schema
    )
    for binding in _binding_stream(template_key, slots, seed):
        resolved = resolve_overrides(binding, oracle_slots)
        statement = substitute(
            query._prepared.statement, resolved, oracle.database.schema
        )
        if form == "bind":
            served = query.bind(binding).run(use_result_cache=False)
        else:
            served = session.run(to_sql(statement), use_result_cache=False)
        fresh_decision = oracle.check(statement)  # a full checker run
        assert fresh_decision.covered, template_key
        fresh = oracle.runner.run_route(oracle.options.executor, fresh_decision.plan)

        # exact row order, not just set equality
        assert served.rows == fresh.rows, (template_key, seed, binding)
        # identical deduced bounds on the decision actually used
        assert served.decision.access_bound == fresh_decision.access_bound
        assert (
            served.decision.tight_access_bound
            == fresh_decision.tight_access_bound
        )
        # identical §3 accounting, fetch op by fetch op
        assert _execution_profile(served.metrics) == _execution_profile(
            fresh.metrics
        ), (template_key, seed, binding)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("template_key", sorted(TEMPLATES))
def test_rebound_equals_fresh_decision_under_a_budget(rig, template_key, seed):
    """Under a tuple budget, a rebound decision's ``within_budget``, its
    ``BudgetExceededError`` and its approximate answer are a fresh
    decision's: the budget's verdict is derived per request from the
    pinned bound, never carried over from another binding."""
    oracle, session = rig
    query = session.query(TEMPLATES[template_key], name=template_key)
    oracle_slots = extract_slots(query._prepared.statement, oracle.database.schema)
    rebound = 0
    for binding in _binding_stream(template_key, query.slots, seed):
        resolved = resolve_overrides(binding, oracle_slots)
        statement = substitute(
            query._prepared.statement, resolved, oracle.database.schema
        )
        pinned = oracle.check(statement)
        handle = query.bind(binding)
        bound = pinned.access_bound
        for budget in sorted({bound, max(bound - 1, 0), 1}):
            fresh = Decision(pinned, "fresh", 0, budget=budget)
            served = handle.decide(budget=budget)
            rebound += served.provenance == "rebound"
            checked = oracle.check(statement, budget).within_budget
            assert served.within_budget == fresh.within_budget == checked
            assert served.coverage == fresh.coverage
            assert repr(served.coverage) == repr(fresh.coverage)
            if fresh.within_budget:
                continue
            with pytest.raises(BudgetExceededError) as ours:
                handle.run(budget=budget, use_result_cache=False)
            with pytest.raises(BudgetExceededError) as theirs:
                oracle.evaluate(statement, fresh, oracle.options)
            assert str(ours.value) == str(theirs.value)
            mine = handle.run(budget=budget, approximate_over_budget=True).approximation
            options = oracle.options.replace(approximate_over_budget=True)
            _, expected = oracle.evaluate(statement, fresh, options)
            assert mine is not None, (template_key, binding, budget)
            assert mine.rows == expected.rows, (template_key, binding, budget)
            assert mine.tuples_fetched == expected.tuples_fetched
            assert mine.complete == expected.complete
            assert mine.missed_bound == expected.missed_bound
            assert mine.recall_lower_bound == expected.recall_lower_bound
            assert _execution_profile(mine.metrics) == _execution_profile(
                expected.metrics
            )
    assert rebound > 0


def test_scenario_floor():
    """The acceptance bar: >= 100 seeded (query, binding-stream)
    scenarios actually parametrized above."""
    assert len(TEMPLATES) * len(SEEDS) >= 100


# --------------------------------------------------------------------------- #
# checker-invocation counters
# --------------------------------------------------------------------------- #
class TestCheckerSkips:
    def _fresh_session(self):
        return Session(
            beas=BEAS(example1_database(), example1_access_schema())
        )

    def test_equal_arity_rebinds_run_zero_checks(self):
        session = self._fresh_session()
        query = session.query(TEMPLATES["single"])
        # first binding of the signature: exactly one checker run
        query.bind(date="2016-06-02").run(use_result_cache=False)
        assert session.beas.checker_runs == 1
        # ten more equal-arity bindings: zero further checker runs
        for day in range(3, 8):
            r = query.bind(date=f"2016-06-0{day}").run(use_result_cache=False)
            assert r.decision.provenance == "rebound"
            r2 = query.bind(
                date=f"2016-06-0{day}", pnum="101"
            ).run(use_result_cache=False)
        assert session.beas.checker_runs == 2  # one per distinct signature
        stats = session.stats()
        assert stats.rebinds >= 5
        assert stats.checker_runs == 2

    def test_arity_change_triggers_recheck(self):
        session = self._fresh_session()
        query = session.query(TEMPLATES["single"])
        query.bind(date="2016-06-02").run(use_result_cache=False)
        base = session.beas.checker_runs
        # IN-list arity 2 is a different signature: re-checked once ...
        r = query.bind(date=["2016-06-03", "2016-06-04"]).run(
            use_result_cache=False
        )
        assert r.decision.provenance == "fresh"
        assert session.beas.checker_runs == base + 1
        # ... and then rebinds at the new arity
        r = query.bind(date=["2016-06-05", "2016-06-06"]).run(
            use_result_cache=False
        )
        assert r.decision.provenance == "rebound"
        assert session.beas.checker_runs == base + 1

    def test_type_class_change_triggers_recheck(self):
        session = self._fresh_session()
        query = session.query(TEMPLATES["single"])
        query.bind(pnum="100").run(use_result_cache=False)
        base = session.beas.checker_runs
        r = query.bind(pnum=100).run(use_result_cache=False)  # str -> int
        assert r.decision.provenance == "fresh"
        assert session.beas.checker_runs == base + 1

    def test_null_binding_is_rejected_outright(self):
        session = self._fresh_session()
        query = session.query(TEMPLATES["single"])
        query.bind(date="2016-06-02").run(use_result_cache=False)
        with pytest.raises(ServingError, match="NULL"):
            query.bind(date=None).run()

    def test_exact_repeat_is_rebound_without_a_check(self):
        """A rebindable decision is not filed per binding: a repeat of a
        binding rebinds the pinned template again, with no checker run."""
        session = self._fresh_session()
        query = session.query(TEMPLATES["single"])
        first = query.bind(date="2016-06-02").run(use_result_cache=False)
        assert first.decision.provenance == "fresh"
        r = query.bind(date="2016-06-02").run(use_result_cache=False)
        assert r.decision.provenance == "rebound"
        assert r.rows == first.rows
        assert session.beas.checker_runs == 1

    def test_merged_arity_guard_falls_back(self):
        """Two slots in one equality class: a binding whose values stop
        intersecting changes the merged class arity, so the rebinder
        must refuse and a full re-check must produce the (empty) answer."""
        session = self._fresh_session()
        query = session.query(TEMPLATES["shared-class"])
        both = {"c.pnum": "100", "b.pnum": "100"}
        r = query.bind(both).run(use_result_cache=False)
        assert r.decision.provenance == "fresh"
        base = session.beas.checker_runs
        # equal values again: same merged arity -> rebind
        r = query.bind({"c.pnum": "101", "b.pnum": "101"}).run(
            use_result_cache=False
        )
        assert r.decision.provenance == "rebound"
        assert session.beas.checker_runs == base
        # diverging values: merged class becomes empty -> guard fallback
        r = query.bind({"c.pnum": "100", "b.pnum": "101"}).run(
            use_result_cache=False
        )
        assert r.decision.provenance == "fresh"
        assert r.rows == []
        assert session.beas.checker_runs == base + 1
        assert session.stats().rebind_fallbacks >= 1
        # the fallback left the pinned template in place: the next
        # ordinary binding rebinds it, with no second checker run
        r = query.bind({"c.pnum": "102", "b.pnum": "102"}).run(
            use_result_cache=False
        )
        assert r.decision.provenance == "rebound"
        assert session.beas.checker_runs == base + 1
        # the odd binding again: its own exact entry, no checker run
        r = query.bind({"c.pnum": "100", "b.pnum": "101"}).run(
            use_result_cache=False
        )
        assert r.decision.provenance == "cached" and r.rows == []
        assert session.beas.checker_runs == base + 1

    def test_schema_change_invalidates_pinned_templates(self):
        """register/unregister bumps the schema generation: pinned
        templates must not survive it."""
        from repro import AccessConstraint

        session = self._fresh_session()
        query = session.query(TEMPLATES["single"])
        query.bind(date="2016-06-02").run(use_result_cache=False)
        r = query.bind(date="2016-06-03").run(use_result_cache=False)
        assert r.decision.provenance == "rebound"
        session.register(
            AccessConstraint(
                "call", ["pnum"], ["recnum"], 50, name="psi-extra"
            )
        )
        base = session.beas.checker_runs
        r = query.bind(date="2016-06-04").run(use_result_cache=False)
        assert r.decision.provenance == "fresh"  # re-decided, new generation
        assert session.beas.checker_runs == base + 1
        session.unregister("psi-extra")
