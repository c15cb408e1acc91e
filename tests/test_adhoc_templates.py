"""Ad-hoc SQL takes the prepared path.

A raw SQL text is a prepared template whose constants arrived inline:
``BEAS.frontend`` lifts the literals off a new text in one regex
pass (``repro.sql.shape``) and binds them to the template of the text's
shape, so the parser, the normaliser and the BE Checker run once per
shape, not once per text (``docs/invariants.md``, "Literal lifting").

Held here:

* as counts, on the TLC queries: after a shape's first request, new
  constants parse nothing, check nothing and compile nothing;
* as a differential: a session that has seen a text's shape before, a
  session that sees the text first, and the brute-force reference
  evaluator agree on every answer, its accounting and its plan;
* that the split finds exactly the lexer's literal tokens, on any text it
  accepts and on that text with other literals put in their place;
* that spellings of one query share a decision and a cached result;
* eight threads over one shape while the access schema changes.
"""

from __future__ import annotations

import gc
import re
import sys
import threading
import time
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import BEAS, ExecutionMode, Session
from repro.bounded import coverage as coverage_module
from repro.bounded import optimizer as optimizer_module
from repro.bounded import skeleton as skeleton_module
from repro.bounded.coverage import BoundedEvaluabilityChecker
from repro.bounded.skeleton import skeleton_of
from repro.errors import LexerError, ParseError
from repro.serving import prepared as prepared_module
from repro.sql import ast
from repro.sql import parser as parser_module
from repro.sql.lexer import NUMBER_PATTERN, STRING_PATTERN, tokenize
from repro.sql.parser import parse
from repro.sql.printer import expression_to_sql
from repro.sql import shape as shape_module
from repro.sql.shape import MARK, split_literals
from repro.sql.tokens import TokenKind
from repro.workloads.tlc import generate_tlc, tlc_access_schema, tlc_queries
from tests.conftest import example1_access_schema, example1_database
from tests.test_fuzz_differential import assert_matches_oracle
from tests.test_plan_skeleton import _Counter

LITERAL_KINDS = (TokenKind.STRING, TokenKind.INTEGER, TokenKind.FLOAT)


def sql_literal(value) -> str:
    return expression_to_sql(ast.Literal(value))


# --------------------------------------------------------------------------- #
# what a new constant still pays: counts (test_plan_skeleton's counter)
# --------------------------------------------------------------------------- #
def _count_front_end(monkeypatch) -> _Counter:
    """Names are patched where they are looked up."""
    counts = _Counter(monkeypatch)
    counts.wrap(prepared_module, "parse_with_literals", "parse")
    counts.wrap(parser_module, "tokenize", "parse")  # a parse from anywhere else
    for module in (coverage_module, optimizer_module):
        counts.wrap(module, "normalize", "normalize")
    counts.wrap(BoundedEvaluabilityChecker, "check", "check")
    counts.wrap(skeleton_module, "_KeyPlan", "_KeyPlan")
    counts.wrap(skeleton_module, "_SelectPlan", "_SelectPlan")
    return counts


@pytest.fixture(scope="module")
def tlc():
    return generate_tlc(2, 42)


def _tlc_constants(dataset, count: int) -> list:
    """``count`` parameter sets over values the data holds, each differing
    from the one before in every field a query binds."""
    db = dataset.database
    column = lambda table, name: sorted(  # noqa: E731
        {row[0] for row in db.table(table).project([name], distinct=True)}
    )
    pools = {
        "p0": column("call", "pnum"),
        "x0": column("call", "recnum"),
        "d0": column("call", "date"),
        "c0": column("package", "pid"),
        "t0": column("business", "type"),
        "r0": column("business", "region"),
    }
    return [
        replace(
            dataset.params,
            **{
                field: pool[(3 + step * stride) % len(pool)]
                for stride, (field, pool) in zip(
                    (7, 11, 13, 17, 19, 23), sorted(pools.items())
                )
            },
        )
        for step in range(count)
    ]


def test_new_constants_parse_and_check_nothing(tlc, monkeypatch):
    """After a shape's first request, 200 texts with fresh constants over
    Q2-Q10 run no parser, no normaliser, no BE Checker and build no key or
    select plan; Q1, whose date also sits in two range predicates (pinned
    literals), pays one of each per new date and nothing per new
    (type, region)."""
    # in this process: a pool worker's set-up could not be counted here
    beas = BEAS(tlc.database, tlc_access_schema(), parallelism=1)
    session = Session(beas=beas)
    counts = _count_front_end(monkeypatch)
    constants = _tlc_constants(tlc, 201)
    options = dict(routing="static", use_result_cache=False)

    for index in range(1, 10):  # Q2-Q10
        texts = [tlc_queries(params)[index].sql for params in constants]
        name = f"Q{index + 1}"
        first = session.run(texts[0], **options)
        assert first.decision.provenance == "fresh", name
        assert counts.counts["parse"] == 2 and counts.counts["check"] == 1, name
        counts.reset()
        for text in texts[1:]:
            result = session.run(text, **options)
            assert result.mode is ExecutionMode.BOUNDED, name
            assert result.decision.provenance in ("rebound", "cached"), name
        assert counts.counts == dict.fromkeys(counts.counts, 0), name

    dates = sorted({params.d0 for params in constants})[:5]
    pairs = sorted({(params.t0, params.r0) for params in constants})
    assert len(pairs) > 3
    for date in dates:
        counts.reset()
        for kind, region in pairs:
            text = tlc_queries(replace(tlc.params, d0=date, t0=kind, r0=region))[0].sql
            result = session.run(text, **options)
            assert result.mode is ExecutionMode.BOUNDED
        assert counts.counts["parse"] == 2  # the hook, and the lexer under it
        assert counts.counts["check"] == counts.counts["normalize"] == 1
    stats = session.stats()
    assert stats.adhoc_templates == 9 + len(dates)
    assert stats.adhoc.misses == stats.adhoc_templates
    assert stats.rebinds >= 9 * 150
    session.close()


# --------------------------------------------------------------------------- #
# warm session vs cold session vs the reference evaluator
# --------------------------------------------------------------------------- #
def _weird_database():
    """Example 1 plus rows whose strings need care in SQL text."""
    db = example1_database()
    db.insert("call", (8, "100", "55'5", "2016-06-01", ""))
    db.insert("call", (9, "10'1", "", "2016-06-02", "o'hare"))
    db.insert("business", ("10'1", "bank", ""))
    db.insert("package", (7, "10'1", "", "2016-01-01", "2016-12-31", -2016))
    return db


PNUM = st.sampled_from(["100", "101", "102", "103", "10'1", "", "nobody", 100])
DATE = st.sampled_from(["2016-06-01", "2016-06-02", "2016-06-03", ""])
REGION = st.sampled_from(["north", "east", "west", "", "o'hare", "o''hare"])
KIND = st.sampled_from(["bank", "shop", "", 5, "5"])
YEAR = st.sampled_from([2016, 2015, -2016, 2.016e3, 2016.0, "2016", 20160e-1])
RECNUM = st.sampled_from(["", "555", "556", "6", "55'5"])
CALL_ID = st.sampled_from([0, 1, 3, 7, 9, -1, 1e0, 2.5, 1e1])
PATTERN = st.sampled_from(["%", "n%", "%t", "_ast", "o'%", ""])
SMALL = st.integers(min_value=0, max_value=3)

#: (text with {holes}, hole -> strategy). Every hole is one literal.
_CALL_WHERE = [
    ("pnum = {p} AND date = {d}", {"p": PNUM, "d": DATE}),
    ("date = {d} AND {p} = pnum", {"p": PNUM, "d": DATE}),
    ("pnum IN ({p}, {p2}) AND date = {d}", {"p": PNUM, "p2": PNUM, "d": DATE}),
    # duplicates inside one IN list
    ("pnum IN ({p}, {p}, {p2}) AND date IN ({d})", {"p": PNUM, "p2": PNUM, "d": DATE}),
    # the same attribute twice: no slot, both constants are pinned
    ("pnum = {p} AND pnum = {p2} AND date = {d}", {"p": PNUM, "p2": PNUM, "d": DATE}),
    ("pnum = {p} AND date = {d} AND region = {r}", {"p": PNUM, "d": DATE, "r": REGION}),
    ("pnum = {p} AND date = {d} AND region <> {r}", {"p": PNUM, "d": DATE, "r": REGION}),
    (
        "pnum = {p} AND date = {d} AND recnum BETWEEN {lo} AND {hi}",
        {"p": PNUM, "d": DATE, "lo": RECNUM, "hi": RECNUM},
    ),
    # call_id is in no access constraint: answered conventionally
    (
        "pnum = {p} AND date = {d} AND call_id NOT BETWEEN {lo} AND {hi}",
        {"p": PNUM, "d": DATE, "lo": CALL_ID, "hi": CALL_ID},
    ),
    (
        "pnum = {p} AND date = {d} AND region LIKE {pat}",
        {"p": PNUM, "d": DATE, "pat": PATTERN},
    ),
    ("pnum = {p} AND date = {d} AND call_id > {lo}", {"p": PNUM, "d": DATE, "lo": CALL_ID}),
    # not covered: no constant on date
    ("pnum = {p} AND region = {r}", {"p": PNUM, "r": REGION}),
]
_CALL_SELECT = [
    ("SELECT DISTINCT recnum, region FROM call WHERE {where}", {}),
    ("SELECT recnum FROM call WHERE {where}", {}),
    ("select region, {k} as k, {tag} as tag from call where {where}", {"k": SMALL, "tag": REGION}),
    ("SELECT COUNT(*) FROM call WHERE {where}", {}),
    (
        "SELECT region, COUNT(*) AS n FROM call WHERE {where} "
        "GROUP BY region HAVING COUNT(*) >= {n}",
        {"n": SMALL},
    ),
    ("SELECT DISTINCT recnum FROM call WHERE {where} LIMIT {n}", {"n": SMALL}),
    # the split declines these: comments, a quoted identifier
    ("SELECT recnum /* a 'comment' */ FROM call -- and 1 more\n WHERE {where}", {}),
    ('SELECT "recnum" FROM call WHERE {where}', {}),
]
_OTHER_SHAPES = [
    (
        "SELECT DISTINCT pnum FROM business WHERE type = {t} AND region = {r}",
        {"t": KIND, "r": REGION},
    ),
    (
        "SELECT pid, start FROM package WHERE pnum = {p} AND year = {y}",
        {"p": PNUM, "y": YEAR},
    ),
    # unary minus folds the literal: the year is pinned
    ("SELECT pid FROM package WHERE pnum = {p} AND year = -{n}", {"p": PNUM, "n": SMALL}),
    (
        "SELECT call.region FROM call, business WHERE business.type = {t} "
        "AND business.region = {r} AND business.pnum = call.pnum AND call.date = {d}",
        {"t": KIND, "r": REGION, "d": DATE},
    ),
    (
        "select call.region from call, package, business "
        "where business.type = {t} and business.region = {r} "
        "and business.pnum = call.pnum and call.date = {d} "
        "and call.pnum = package.pnum and package.year = {y} "
        "and package.start <= {d} and package.end >= {d} and package.pid = {c}",
        {"t": KIND, "r": REGION, "d": DATE, "y": YEAR, "c": st.sampled_from(["c0", "c1", ""])},
    ),
    (
        "SELECT pnum FROM business WHERE type = {t} UNION "
        "SELECT pnum FROM call WHERE pnum = {p} AND date = {d}",
        {"t": KIND, "p": PNUM, "d": DATE},
    ),
]
_GARBAGE = [
    ("SELECT recnum FROM call WHERE pnum = {p} AND", {"p": PNUM}),
    ("SELECT recnum FROM call WHERE pnum = {p} ? date", {"p": PNUM}),
    ("SELECT 'unterminated FROM call WHERE pnum = {p}", {"p": PNUM}),
    ("SELECT recnum FROM call WHERE pnum = {p} /* open", {"p": PNUM}),
    ("SELEC recnum FROM call WHERE pnum = {p}", {"p": PNUM}),
    ("SELECT recnum FROM call WHERE pnum = {p} LIMIT {r}", {"p": PNUM, "r": REGION}),
    ("SELECT recnum FROM call WHERE pnum = {p} trailing {n}", {"p": PNUM, "n": SMALL}),
]


@st.composite
def shapes(draw):
    """A text with holes and the strategy of each hole."""
    family = draw(st.integers(min_value=0, max_value=9))
    if family == 0:
        return draw(st.sampled_from(_GARBAGE))
    if family <= 3:
        return draw(st.sampled_from(_OTHER_SHAPES))
    select, select_holes = draw(st.sampled_from(_CALL_SELECT))
    where, where_holes = draw(st.sampled_from(_CALL_WHERE))
    return select.replace("{where}", where), {**select_holes, **where_holes}


def _render(text: str, constants: dict) -> str:
    return text.format(**{hole: sql_literal(v) for hole, v in constants.items()})


def _weird_session() -> Session:
    # in this process, so both sessions' plans are this process's objects
    return Session(beas=BEAS(_weird_database(), example1_access_schema(), parallelism=1))


def _outcome(session: Session, text: str):
    try:
        return session.run(text)
    except (LexerError, ParseError) as error:
        return error


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_warm_session_equals_cold_session_equals_reference(data):
    """``first`` and ``second`` are one shape with two sets of constants.
    The warm session has served ``first`` when it serves ``second``; the
    cold session sees ``second`` first. Also ``x = 5`` then ``x = '5'``:
    the pools mix types, and a type is part of a shape."""
    text, holes = data.draw(shapes())
    first = _render(text, {hole: data.draw(s) for hole, s in holes.items()})
    second = _render(text, {hole: data.draw(s) for hole, s in holes.items()})
    with _weird_session() as warm, _weird_session() as cold:
        _outcome(warm, first)
        got, expected = _outcome(warm, second), _outcome(cold, second)
        if isinstance(expected, Exception):
            # exactly what the parser alone says about the text
            with pytest.raises(type(expected)) as alone:
                parse(second)
            assert type(got) is type(expected)
            assert str(got) == str(expected) == str(alone.value)
            return
        assert got.rows == expected.rows, second
        assert got.columns == expected.columns
        assert got.mode is expected.mode
        assert got.metrics.tuples_fetched == expected.metrics.tuples_fetched
        assert got.decision.access_bound == expected.decision.access_bound
        assert got.decision.coverage.plan == expected.decision.coverage.plan
        assert repr(got.decision.coverage.plan) == repr(expected.decision.coverage.plan)

        known = split_literals(first)
        new = split_literals(second)
        if known is not None and new is not None and known[0] == new[0]:
            stats = warm.stats()
            if stats.adhoc.hits:  # same pinned literals: nothing was parsed
                assert stats.adhoc.misses == 1 and stats.adhoc_templates == 1
                if expected.decision.covered and " IN (" not in text:
                    # (duplicates change an IN list's arity, and with it
                    # the binding's signature: that binding is re-checked)
                    assert got.decision.provenance in ("rebound", "cached")
                    assert warm.beas.checker_runs == 1
        statement = parse(second)
        if "UNION" not in text:
            limit = statement.limit
            assert_matches_oracle(warm.database, got, second, limit)


# --------------------------------------------------------------------------- #
# the split against the lexer
# --------------------------------------------------------------------------- #
_PIECES = [
    "'", "''", '"', "a", "b1", "_x", "1", "23", ".", "..", "e", "E", "+", "-", "--",
    "/*", "*/", "/", "*", " ", " ", "\n", "select", "where", "=", "<", "<=", "<>",
    "(", ")", ",", ";", "²", "é", "1e5", "1.5", ".5", "1.", "x.5", "'abc'", "'a''b'",
    "'a\nb'", "'--'", "'/*'", "'\"'", '"q"', "-- c\n", "/* c */", "?", "1e+", "1e-3",
    "e5", MARK, "and", "limit", "in", "t.1", "1..2", "5x", "''''",
]  # fmt: skip
_REPLACEMENTS = {
    "s": st.sampled_from(["", "x", "o'hare", "--", '"', "/* */", "1", "a\nb"]),
    "i": st.sampled_from([0, 7, 42, 10**12]),
    "f": st.sampled_from([0.5, 1e5, 2.0, 1e-3]),
}


def _literal_tokens(tokens) -> list:
    return [(t.kind.value[0], type(t.value), t.value) for t in tokens if t.kind in LITERAL_KINDS]


def _skeleton_tokens(tokens) -> list:
    """The stream with each literal reduced to its kind."""
    return [
        t.kind if t.kind in LITERAL_KINDS else (t.kind, t.text) for t in tokens
    ]


@settings(max_examples=1500, deadline=None)
@given(pieces=st.lists(st.sampled_from(_PIECES), max_size=10), data=st.data())
def test_split_finds_exactly_the_lexers_literals(pieces, data):
    text = "".join(pieces)
    split = split_literals(text)
    if split is None:
        return  # declining is always allowed
    try:
        tokens = tokenize(text)
    except LexerError:
        return  # the parse raises, as it always did
    shape, values = split
    kinds = [shape[i - 1] for i, ch in enumerate(shape) if ch == MARK]
    assert [(k, type(v), v) for k, v in zip(kinds, values)] == _literal_tokens(tokens)
    assert len(kinds) == len(values)

    # other literals of the same kinds in their place: the same shape, the
    # same tokens around them
    others = [data.draw(_REPLACEMENTS[kind]) for kind in kinds]
    parts = shape.split(MARK)
    rebuilt = "".join(
        part[:-1] + sql_literal(value) for part, value in zip(parts, others)
    ) + parts[-1]
    assert split_literals(rebuilt) == (shape, others)
    again = tokenize(rebuilt)
    assert _skeleton_tokens(again) == _skeleton_tokens(tokens)
    assert [t.value for t in again if t.kind in LITERAL_KINDS] == others


#: the literal patterns without the unrolled string loop and the
#: first-character guard: the same language, matched more slowly
_PLAIN_STRING = r"'(?:[^']|'')*'(?!')"
_PLAIN_LITERAL = re.compile(
    rf"({_PLAIN_STRING}|(?<![\w.])(?:{NUMBER_PATTERN})(?![\w.]))"
)
_TEXTS = st.one_of(
    st.text(),
    st.text(alphabet="'a .1e5-+x\n\"", max_size=24),
    st.lists(st.sampled_from(_PIECES), max_size=12).map("".join),
)


@settings(max_examples=1000, deadline=None)
@given(text=_TEXTS)
def test_the_fast_literal_patterns_match_as_the_plain_ones(text):
    assert shape_module._LITERAL.split(text) == _PLAIN_LITERAL.split(text)
    for fast, plain in [
        (STRING_PATTERN, _PLAIN_STRING),
        (shape_module._LITERAL.pattern, _PLAIN_LITERAL.pattern),
    ]:
        assert bool(re.fullmatch(fast, text)) == bool(re.fullmatch(plain, text))


# --------------------------------------------------------------------------- #
# spellings of one query
# --------------------------------------------------------------------------- #
SPELLINGS = [
    "SELECT DISTINCT recnum, region FROM call WHERE pnum = {p} AND date = {d} AND recnum > '0'",
    "select distinct recnum, region\n  from call\n  where recnum > '0' and date = {d} and pnum = {p}",
    "SELECT DISTINCT recnum,region FROM call WHERE date={d} AND recnum>'0' AND pnum={p};",
]


def test_spellings_share_one_decision_and_one_cached_result():
    """Whitespace, keyword case and conjunct order do not change a
    request's fingerprint, whichever constants a spelling was first seen
    with."""
    session = Session(example1_database(), example1_access_schema())
    with session:
        keys = [("100", "2016-06-01"), ("101", "2016-06-01"), ("100", "2016-06-02")]
        # each spelling first seen with a different key, twice: the second
        # sighting admits
        for spelling, (p, d) in zip(SPELLINGS, keys):
            for _ in range(2):
                session.run(spelling.format(p=sql_literal(p), d=sql_literal(d)))
        assert session.beas.checker_runs == 1  # one shape up to presentation
        for p, d in keys:
            answers = [
                session.run(spelling.format(p=sql_literal(p), d=sql_literal(d)))
                for spelling in SPELLINGS
            ]
            assert all(r.metrics.served_from_cache for r in answers)
            assert all(r.rows == answers[0].rows for r in answers)
        stats = session.stats()
        assert stats.result_entries == len(keys)
        # every decided sighting after the first rebinds the one pinned
        # decision, a repeat too (a rebindable decision is not filed per
        # binding); the other nine were served from the result cache
        assert stats.checker_runs == 1 and stats.rebinds == 5
        assert stats.adhoc_templates == len(SPELLINGS)
        # ad-hoc templates never enter the named registry
        assert session.beas.prepared_names() == []
        handle = session.query(SPELLINGS[0].format(p="'100'", d="'2016-06-02'"))
        assert handle.run().rows == answers[0].rows
        assert session.beas.prepared_names() == [handle.name]


def test_templates_are_bounded_and_an_evicted_shape_comes_back(monkeypatch):
    monkeypatch.setattr(prepared_module, "_TEMPLATE_LIMIT", 2)
    texts = [
        "SELECT DISTINCT recnum FROM call WHERE pnum = '100' AND date = '2016-06-01'",
        "SELECT DISTINCT region FROM call WHERE pnum = '100' AND date = '2016-06-01'",
        # one shape, two pinned LIMITs: two templates
        "SELECT recnum FROM call WHERE pnum = '100' AND date = '2016-06-01' LIMIT 1",
        "SELECT recnum FROM call WHERE pnum = '100' AND date = '2016-06-01' LIMIT 2",
    ]
    with Session(example1_database(), example1_access_schema()) as session:
        first = [session.run(text, use_result_cache=False).rows for text in texts]
        assert [len(rows) for rows in first[2:]] == [1, 2]
        stats = session.stats()
        assert (stats.adhoc_templates, stats.adhoc.evictions) == (2, 2)
        session.beas.parse_cache.invalidate_all()  # the texts, not the templates
        again = [
            session.run(text, use_result_cache=False).rows for text in reversed(texts)
        ]
        assert again == first[::-1]
        stats = session.stats()
        assert (stats.adhoc_templates, stats.adhoc.evictions) == (2, 4)
        assert (stats.adhoc.hits, stats.adhoc.misses) == (2, 6)


# --------------------------------------------------------------------------- #
# eight threads, one shape, a schema that changes under them
# --------------------------------------------------------------------------- #
THREAD_SQL = "SELECT DISTINCT recnum, region FROM call WHERE pnum = {p} AND date = {d}"


def test_eight_threads_one_shape_under_schema_changes():
    database = example1_database()
    session = Session(beas=BEAS(database, example1_access_schema(), parallelism=1))
    keys = [
        (p, d)
        for p in ("100", "101", "102", "103")
        for d in ("2016-06-01", "2016-06-02", "2016-06-03", "2016-06-04")
    ]
    texts = [THREAD_SQL.format(p=sql_literal(p), d=sql_literal(d)) for p, d in keys]
    oracle = BEAS(database, example1_access_schema())
    expected = [sorted(oracle.runner.run_route("row", oracle.check(t).plan).rows) for t in texts]
    psi1 = next(c for c in session.beas.catalog.schema if c.name == "psi1")

    failures: list[str] = []
    modes = set()
    deadline = time.monotonic() + 1.5
    barrier = threading.Barrier(9)

    def reader(offset: int) -> None:
        barrier.wait(timeout=10)
        turn = 0
        mine = range(offset, len(texts), 8)  # disjoint constants per thread
        while time.monotonic() < deadline and not failures:
            index = mine[turn % len(mine)]
            result = session.run(texts[index], use_result_cache=turn % 2 == 0)
            modes.add(result.mode)
            if sorted(result.rows) != expected[index]:
                failures.append(f"{keys[index]}: {result.rows}")
            turn += 1

    def schema_changer() -> None:
        barrier.wait(timeout=10)
        while time.monotonic() < deadline and not failures:
            session.unregister("psi1")  # the plan's own constraint
            time.sleep(0.002)
            session.register(psi1)
            time.sleep(0.002)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(n,)) for n in range(8)]
        threads.append(threading.Thread(target=schema_changer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
    assert ExecutionMode.BOUNDED in modes
    # however many threads met the shape's first text at once
    assert session.stats().adhoc_templates == 1

    # quiescent, in a generation no thread decided anything in: a bump
    # drops every plan pinned for the shape
    session.unregister("psi1")
    session.register(psi1)
    first = session.run(texts[0], use_result_cache=False)
    again = session.run(texts[5], use_result_cache=False)
    assert (first.decision.provenance, again.decision.provenance) == ("fresh", "rebound")
    plan = first.decision.coverage.plan
    skeleton = weakref.ref(skeleton_of(plan))
    assert skeleton_of(again.decision.coverage.plan) is skeleton()
    generation = again.decision.generation
    session.unregister("psi1")
    session.register(psi1)
    del first, again, plan
    after = session.run(texts[10], use_result_cache=False)
    assert after.decision.generation > generation
    assert after.decision.provenance == "fresh"  # nothing pinned survived
    gc.collect()
    assert skeleton() is None
    assert session.stats().adhoc_templates == 1  # templates outlive generations
    session.close()
