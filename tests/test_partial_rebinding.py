"""Partially bounded decisions rebound by value, against fresh decisions.

TLC's Q11 is not covered: a psi3 prefix on ``business``, then a residual
scan of ``data_usage``. Its decision depends on the binding's shape, not
on its values, so the serving layer pins it once per (template, arity
signature) and rebinds it by value (``repro.bounded.rebind``): the
pinned prefix runs off the binding's constant vector and the residual
selects the binding's values. This suite binds Q11 through
``Query.bind`` and as ad-hoc text, for every month × every (type,
region) of the data, and holds each answer to:

* the reference evaluator's rows, compared as bags;
* a freshly decided evaluation's rows, ``tuples_fetched`` and
  ``tuples_scanned``, and its decision (``==``), with the prefix's
  ``tuples_fetched`` equal to the reference plan interpreter's. The
  residual probes ``data_usage``'s key index on ``pnum``, and counts
  every row on the request that builds it, the probed buckets after
  that; the index lives on the ``Table``, which ``tlc_small`` shares
  across engines, so every count is taken with it built
  (:func:`with_key_index`);
* after the template's first binding: provenance ``"rebound"``, zero
  BE Checker runs and zero BE Plan Optimizer analyses.

An IN-list arity change or a NULL re-checks; the second read of a
binding is served from the result cache (a PARTIAL answer is admitted
on first sight).
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro import BEAS, Decision
from repro.beas.result import ExecutionMode
from repro.workloads.tlc import generate_tlc, tlc_access_schema, tlc_queries

from tests.reference_evaluator import reference_execute
from tests.test_plan_skeleton import ReferenceInterpreter

SLOTS = ("b.type", "b.region", "d.month")
#: a month the data has no usage for: every answer is empty
ABSENT_MONTH = 4


def q11_text(params) -> str:
    return tlc_queries(params)[10].sql


def render(params, binding: dict) -> str:
    """Q11 as ad-hoc text with ``binding``'s constants in place of the
    planted ones."""
    kind, region, month = (binding[slot] for slot in SLOTS)
    return (
        q11_text(params)
        .replace(f"b.type = '{params.t0}'", f"b.type = '{kind}'")
        .replace(f"b.region = '{params.r0}'", f"b.region = '{region}'")
        .replace(f"d.month = {params.m0}", f"d.month = {month}")
    )


def with_key_index(database) -> None:
    """Build ``data_usage``'s key index on ``pnum`` — the residual's
    sideways column — unless a request already has: a count compared
    across engines is then one of probed buckets on both sides."""
    table = database.table("data_usage")
    positions = (table.schema.position("pnum"),)
    if table.key_index(positions) is None:
        table.build_key_index(positions)


def bindings_of(database) -> list[dict]:
    pairs = database.table("business").project(["type", "region"], distinct=True)
    months = sorted(
        row[0] for row in database.table("data_usage").project(["month"], distinct=True)
    )
    return [
        dict(zip(SLOTS, (kind, region, month)))
        for kind, region in pairs
        for month in months + [ABSENT_MONTH]
    ]


@pytest.fixture(scope="module")
def oracle(tlc_small):
    """Per binding (in ``bindings_of`` order): the reference rows, and a
    freshly decided evaluation — decision, rows, ``tuples_fetched``,
    ``tuples_scanned`` — plus the reference plan interpreter's
    ``tuples_fetched`` for the fresh prefix."""
    database, params = tlc_small.database, tlc_small.params
    # one reference run answers every binding: Q11 with its selections
    # on type, region and month lifted into the output
    everything = reference_execute(
        database,
        "select distinct b.type, b.region, d.month, d.app_category "
        "from data_usage d, business b where d.pnum = b.pnum",
    )
    bindings = bindings_of(database)
    with_key_index(database)
    with BEAS(database, tlc_access_schema()) as fresh:
        prepared = fresh.session().query(q11_text(params))
        interpreter = ReferenceInterpreter(fresh.catalog)
        expected = []
        for binding in bindings:
            statement = prepared._prepared.binding(binding).statement
            decision = fresh.check(statement)
            mode, answer = fresh.evaluate(statement, Decision(decision, "fresh", 0), fresh.options)
            assert mode is ExecutionMode.PARTIAL
            reference = Counter(
                (category,)
                for kind, region, month, category in everything
                if (kind, region, month) == tuple(binding.values())
            )
            _, _, prefix, _ = interpreter.execute(decision.partial.sub_plan)
            expected.append(
                (
                    binding,
                    reference,
                    decision,
                    Counter(answer.rows),
                    answer.metrics.tuples_fetched,
                    answer.metrics.tuples_scanned,
                    prefix.tuples_fetched,
                )
            )
    return expected


@pytest.mark.parametrize("path", ["prepared", "adhoc"])
def test_every_binding_matches_the_reference_and_a_fresh_decision(
    tlc_small, oracle, analyze_calls, path
):
    params = tlc_small.params
    with BEAS(tlc_small.database, tlc_access_schema()) as beas:
        session = beas.session()
        query = session.query(q11_text(params))
        for step, expected in enumerate(oracle):
            binding, reference, fresh, rows, fetched, scanned, prefix = expected
            if path == "prepared":
                result = query.bind(binding).run(use_result_cache=False)
            else:
                result = session.run(render(params, binding), use_result_cache=False)
            assert result.mode is ExecutionMode.PARTIAL
            assert Counter(result.rows) == reference == rows, binding
            assert result.metrics.tuples_fetched == fetched == prefix, binding
            assert result.metrics.tuples_scanned == scanned, binding
            assert result.decision.coverage == fresh, binding
            if step == 0:
                assert result.decision.provenance == "fresh"
                assert beas.checker_runs == analyze_calls[0] == 1
            else:
                assert result.decision.provenance == "rebound", binding
        # after the template's first binding: no checker run, no analysis
        assert beas.checker_runs == analyze_calls[0] == 1
        assert session.stats().rebinds == len(oracle) - 1


def test_an_in_list_arity_change_or_a_null_re_checks(tlc_small):
    params = tlc_small.params
    text = q11_text(params)
    with BEAS(tlc_small.database, tlc_access_schema()) as beas:
        session = beas.session()
        query = session.query(text)
        query.bind({"d.month": 5}).run(use_result_cache=False)
        assert beas.checker_runs == 1
        # IN-list arity 2 is another signature: re-checked once ...
        wide = query.bind({"d.month": [5, 6]}).run(use_result_cache=False)
        assert wide.decision.provenance == "fresh"
        assert beas.checker_runs == 2
        # ... then rebound at the new arity
        again = query.bind({"d.month": [4, 6]}).run(use_result_cache=False)
        assert again.decision.provenance == "rebound"
        assert beas.checker_runs == 2
        listed = text.replace(f"d.month = {params.m0}", "d.month in (4, 6)")
        expected = reference_execute(tlc_small.database, listed)
        assert Counter(again.rows) == Counter(expected)
        # a NULL in the text is another signature too: a fresh check,
        # and no row matches it
        null = session.run(text.replace(f"d.month = {params.m0}", "d.month = NULL"))
        assert null.decision.provenance == "fresh"
        assert beas.checker_runs == 3
        assert null.rows == []


def test_the_second_read_of_a_partial_binding_is_a_hit(tlc_small):
    params = tlc_small.params
    with BEAS(tlc_small.database, tlc_access_schema()) as beas:
        session = beas.session()
        query = session.query(q11_text(params))
        query.bind({"d.month": 6}).run()  # pins the template
        first = query.bind({"d.month": 5}).run()
        assert first.decision.provenance == "rebound"
        assert not first.metrics.served_from_cache
        assert first.metrics.tuples_scanned > 0
        second = query.bind({"d.month": 5}).run()
        assert second.metrics.served_from_cache
        assert second.metrics.tuples_fetched == second.metrics.tuples_scanned == 0
        assert Counter(second.rows) == Counter(first.rows)
        # ad-hoc text: its first read is admitted, its second a hit
        text = render(params, dict(zip(SLOTS, (params.t0, params.r0, 5))))
        assert not session.run(text).metrics.served_from_cache
        hit = session.run(text)
        assert hit.metrics.served_from_cache and hit.metrics.tuples_scanned == 0
        assert Counter(hit.rows) == Counter(first.rows)


def test_explain_of_a_rebound_partial_decision_keeps_its_residual(tlc_small):
    params = tlc_small.params
    text = q11_text(params)
    with BEAS(tlc_small.database, tlc_access_schema()) as beas, BEAS(
        tlc_small.database, tlc_access_schema()
    ) as fresh:
        query = beas.session().query(text)
        query.bind({"d.month": 6}).run()  # pins the template
        listing = query.bind({"d.month": 5}).explain()
        bound = text.replace(f"d.month = {params.m0}", "d.month = 5")
        assert listing == fresh.explain(bound)
        assert "residual plan" in listing and "d.month = 5" in listing
        assert "probes data_usage as d by its key index on (pnum)" in listing
        # the residual lists the probe it runs; the host plan still scans
        residual, host = listing.split("host plan:")
        assert "Probe data_usage AS d on (pnum) filter [d.month = 5]" in residual
        assert "Scan data_usage AS d" not in residual
        assert "Scan data_usage AS d filter [d.month = 5]" in host
        assert query.bind({"d.month": 5}).decide().provenance == "rebound"
        assert beas.checker_runs == 1  # neither explain nor decide checked


def test_a_partial_decision_explains_the_plan_that_runs(tlc_small):
    """``decide().explain()`` lists the reasons, the partially bounded
    plan and its residual's steps: ``explain()`` up to its host plan,
    fresh and rebound."""
    with BEAS(tlc_small.database, tlc_access_schema()) as beas:
        query = beas.session().query(q11_text(tlc_small.params))
        for month, provenance in ((6, "fresh"), (5, "rebound")):
            bound = query.bind({"d.month": month})
            decision = bound.decide()
            assert decision.provenance == provenance
            listing = decision.explain()
            assert f"Probe data_usage AS d on (pnum) filter [d.month = {month}]" in listing
            assert "host plan:" not in listing
            assert bound.explain().split("\nhost plan:")[0] == listing


#: Q11 with a number selected on the residual's side of the join: the
#: class {d.pnum, b.pnum} spans prefix and residual
SPANNING = """
    select distinct d.app_category
    from data_usage d, business b
    where b.type = '{t}' and b.region = '{r}'
      and d.pnum = b.pnum and d.pnum = '{p}' and d.month = {m}
"""


def test_a_class_spanning_prefix_and_residual_patches_both(tlc_small):
    params = tlc_small.params
    database = tlc_small.database
    pnums = sorted({row[0] for row in database.table("business").project(["pnum"])})[:6]
    with_key_index(database)
    template = SPANNING.format(t=params.t0, r=params.r0, p=pnums[0], m=params.m0)
    with BEAS(database, tlc_access_schema()) as beas, BEAS(
        database, tlc_access_schema()
    ) as fresh:
        session = beas.session()
        query = session.query(template)
        assert set(query.slots) >= {"d.pnum", "d.month"}
        for step, pnum in enumerate(pnums):
            result = query.bind({"d.pnum": pnum}).run(use_result_cache=False)
            bound = SPANNING.format(t=params.t0, r=params.r0, p=pnum, m=params.m0)
            decision = fresh.check(bound)
            assert decision.partial is not None
            _, answer = fresh.evaluate(bound, Decision(decision, "fresh", 0), fresh.options)
            assert result.mode is ExecutionMode.PARTIAL
            assert result.decision.provenance == ("fresh" if step == 0 else "rebound")
            assert result.decision.coverage == decision, pnum
            assert Counter(result.rows) == Counter(answer.rows), pnum
            assert Counter(result.rows) == Counter(reference_execute(database, bound))
            assert result.metrics.tuples_fetched == answer.metrics.tuples_fetched
            assert result.metrics.tuples_scanned == answer.metrics.tuples_scanned
        assert beas.checker_runs == 1


def test_the_merged_arity_guard_falls_back_across_the_join(tlc_small):
    """``b.pnum`` and ``d.pnum`` are two slots of one class: values that
    stop intersecting change its merged arity, so the rebinder refuses
    and a fresh check answers (empty)."""
    params = tlc_small.params
    database = tlc_small.database
    p0, p1 = sorted({row[0] for row in database.table("business").project(["pnum"])})[:2]
    template = SPANNING.format(t=params.t0, r=params.r0, p=p0, m=params.m0).replace(
        "d.month", f"b.pnum = '{p0}' and d.month"
    )
    with BEAS(database, tlc_access_schema()) as beas:
        session = beas.session()
        query = session.query(template)
        query.bind({"d.pnum": p0, "b.pnum": p0}).run(use_result_cache=False)
        assert beas.checker_runs == 1
        apart = query.bind({"d.pnum": p1, "b.pnum": p0}).run(use_result_cache=False)
        assert apart.decision.provenance == "fresh"
        assert beas.checker_runs == 2
        assert apart.rows == []
        assert session.stats().rebind_fallbacks == 1


def test_q11_across_writes_probes_exact_buckets():
    """Inserts and deletes on both of Q11's relations between reads, the
    result cache off. The residual's key index on ``data_usage(pnum)``
    is built by the first read and kept by every write after it: each
    binding's rows equal the reference evaluator's, and
    ``tuples_scanned`` is the prefix's rows plus the probed buckets
    (plus every ``data_usage`` row, on the read that built the index)."""
    dataset = generate_tlc(1, 42)  # private: this test writes to it
    database, params = dataset.database, dataset.params
    usage, business = database.table("data_usage"), database.table("business")
    u_pnum = usage.schema.position("pnum")
    b_pnum, b_type, b_region = business.schema.positions(["pnum", "type", "region"])
    rng = random.Random(38)
    built = False
    with BEAS(database, tlc_access_schema()) as beas:
        query = beas.session().query(q11_text(params))
        for round_ in range(4):
            if round_:
                _write_round(beas, rng, round_)
            everything = reference_execute(
                database,
                "select distinct b.type, b.region, d.month, d.app_category "
                "from data_usage d, business b where d.pnum = b.pnum",
            )
            for binding in bindings_of(database):
                kind, region, month = binding.values()
                result = query.bind(binding).run(use_result_cache=False)
                assert result.mode is ExecutionMode.PARTIAL
                expected = Counter(
                    (category,)
                    for k, r, m, category in everything
                    if (k, r, m) == (kind, region, month)
                )
                assert Counter(result.rows) == expected, binding
                prefix = {
                    row[b_pnum]
                    for row in business.rows
                    if (row[b_type], row[b_region]) == (kind, region)
                }
                buckets = sum(1 for row in usage.rows if row[u_pnum] in prefix)
                scanned = len(prefix) + (len(usage) if not built else buckets)
                assert result.metrics.tuples_scanned == scanned, binding
                built = True
        assert usage.key_index((u_pnum,)) is not None


def _write_round(beas, rng: random.Random, round_: int) -> None:
    """One round of writes to Q11's relations: new and copied usage rows
    on business numbers, deleted usage rows; a business moved to a
    number with usage, one business deleted."""
    database = beas.database
    usage, business = database.table("data_usage"), database.table("business")
    u_pnum = usage.schema.position("pnum")
    u_id = usage.schema.position("usage_id")
    b_pnum = business.schema.position("pnum")
    pnums = sorted({row[b_pnum] for row in business.rows})
    copies = []
    for i, row in enumerate(rng.sample(usage.rows, 12)):
        cells = list(row)
        cells[u_id] = 10_000_000 * round_ + i
        cells[u_pnum] = rng.choice(pnums)
        copies.append(tuple(cells))
    beas.insert("data_usage", copies)
    beas.delete("data_usage", rng.sample(usage.rows, 9))
    # a business takes a number that has usage rows and no business yet
    bare = sorted({row[u_pnum] for row in usage.rows} - set(pnums))
    moved = list(rng.choice(business.rows))
    beas.delete("business", [tuple(moved)])
    if bare:
        moved[b_pnum] = rng.choice(bare)
        beas.insert("business", [tuple(moved)])
    beas.delete("business", [rng.choice(business.rows)])
