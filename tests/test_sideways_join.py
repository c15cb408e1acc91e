"""Sideways information passing in the hash join, against the kernel it
replaced, and the PartialPlan pinned to its cached decision.

``ReferenceExecutor`` below runs a hash join the way the parent commit
(PR 14) did: materialise both children — every scan interprets its
pushed-down predicate on every tuple — then build on the smaller input
and probe with the other. It survives only here, as the oracle. The live
executor hands the build table's keys to a scan on the probe side
(``d JOIN T == (d SEMIJOIN T) JOIN T``); row bags, ``tuples_scanned``,
``tuples_fetched`` and ``intermediate_rows`` may not move.

The second half holds what the change is for, as counts: the interpreted
predicate runs once per tuple that can join, whatever the table's size,
and a not-covered decision is analysed once per (fingerprint, schema
generation).
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AccessConstraint,
    AccessSchema,
    BEPlanOptimizer,
    ConventionalEngine,
    Database,
    DatabaseSchema,
    DataType,
    ExecutionMode,
    Session,
    TableSchema,
)
from repro.engine import physical
from repro.engine.expressions import compile_predicate
from repro.engine.logical import JoinNode, ScanNode
from repro.engine.metrics import ExecutionMetrics
from repro.engine.physical import Intermediate, PhysicalExecutor
from repro.engine.profiles import MARIADB, MYSQL, POSTGRESQL
from repro.sql.normalize import Attribute
from repro.storage.table import Table
from repro.workloads.tlc import generate_tlc, tlc_access_schema, tlc_queries
from tests.conftest import nan_keyed
from tests.reference_evaluator import reference_execute


# --------------------------------------------------------------------------- #
# the oracle: scan + hash join at the parent commit
# --------------------------------------------------------------------------- #
class ReferenceExecutor(PhysicalExecutor):
    def _scan(self, node: ScanNode, sideways=None) -> Intermediate:
        assert sideways is None
        table = self._db.table(node.table_name)
        base_layout = {
            Attribute(node.binding, column): i
            for i, column in enumerate(table.schema.column_names)
        }
        keep = table.schema.positions(node.columns)
        labels = [Attribute(node.binding, c) for c in node.columns]
        predicate = (
            compile_predicate(node.predicate, base_layout)
            if node.predicate is not None
            else None
        )
        rows = [
            tuple(row[i] for i in keep)
            for row in table.rows
            if predicate is None or predicate(row)
        ]
        self._metrics.tuples_scanned += len(table)
        self._metrics.record(
            f"scan({node.table_name} as {node.binding})", len(table), len(rows), 0.0
        )
        return Intermediate(labels, rows)

    def _hash_join(self, node: JoinNode) -> Intermediate:
        left = self.run(node.left)
        right = self.run(node.right)
        left_keys = [left.layout[a] for a, _ in node.pairs]
        right_keys = [right.layout[b] for _, b in node.pairs]
        rows = self._reference_hash_join(left.rows, right.rows, left_keys, right_keys)
        self._metrics.intermediate_rows += len(rows)
        self._metrics.record(
            "join[hash]", len(left.rows) + len(right.rows), len(rows), 0.0
        )
        return Intermediate(left.labels + right.labels, rows)

    @staticmethod
    def _reference_hash_join(left_rows, right_rows, left_keys, right_keys):
        # build on the smaller input
        if len(left_rows) <= len(right_rows):
            table: dict = {}
            for row in left_rows:
                key = tuple(row[i] for i in left_keys)
                if None in key:
                    continue
                table.setdefault(key, []).append(row)
            out = []
            for row in right_rows:
                key = tuple(row[i] for i in right_keys)
                if None in key:
                    continue
                for match in table.get(key, ()):
                    out.append(match + row)
            return out
        table = {}
        for row in right_rows:
            key = tuple(row[i] for i in right_keys)
            if None in key:
                continue
            table.setdefault(key, []).append(row)
        out = []
        for row in left_rows:
            key = tuple(row[i] for i in left_keys)
            if None in key:
                continue
            for match in table.get(key, ()):
                out.append(row + match)
        return out


def run_both(db: Database, sql: str, profile=POSTGRESQL):
    """One plan, both kernels: (live rows, live metrics, reference rows,
    reference metrics)."""
    plan = ConventionalEngine(db, profile).plan(sql)
    live, reference = ExecutionMetrics(), ExecutionMetrics()
    live_rows = PhysicalExecutor(db, profile, live).run(plan).rows
    reference_rows = ReferenceExecutor(db, profile, reference).run(plan).rows
    return live_rows, live, reference_rows, reference


def bag(rows) -> Counter:
    """Row multiset; NaN cells (never ``==`` themselves) compare by repr."""
    return Counter(nan_keyed(rows))


def assert_counts_equal(live: ExecutionMetrics, reference: ExecutionMetrics) -> None:
    assert live.tuples_scanned == reference.tuples_scanned
    assert live.tuples_fetched == reference.tuples_fetched
    assert live.intermediate_rows == reference.intermediate_rows


# --------------------------------------------------------------------------- #
# random pairs of small relations
# --------------------------------------------------------------------------- #
def build_db(l_rows, r_rows) -> Database:
    db = Database(
        DatabaseSchema(
            [
                TableSchema(
                    "l",
                    [("k", DataType.FLOAT), ("j", DataType.INT), ("a", DataType.INT)],
                ),
                TableSchema(
                    "r",
                    [("k", DataType.FLOAT), ("j", DataType.INT), ("b", DataType.INT)],
                ),
            ]
        )
    )
    for name, rows in (("l", l_rows), ("r", r_rows)):
        for k, j, payload in rows:
            db.insert(name, (float("nan") if k == "nan" else k, j, payload))
    return db


# small domains: duplicates on both sides, NULL and NaN join keys;
# float("nan") is a fresh object per row, as it is for a real caller
_rows = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1.0, 2.0, None, "nan"]),
        st.sampled_from([0, 1, None]),
        st.sampled_from([0, 1, 2, 3, None]),
    ),
    max_size=10,
)
_keys = st.sampled_from(["l.k = r.k", "l.j = r.j", "l.k = r.k AND l.j = r.j"])
# pushed down into one scan; UNKNOWN (not kept) wherever the payload is NULL
_pushed = st.sampled_from(
    [None, "r.b > 1", "l.a <= 2", "r.b <> 0 AND l.a IN (1, 2, 3)"]
)
_from = st.sampled_from(["l, r", "r, l"])


def _sql(from_items, keys, pushed, *, tail=""):
    where = keys if pushed is None else f"{keys} AND {pushed}"
    return f"SELECT l.a, r.b FROM {from_items} WHERE {where}{tail}"


class TestAgainstTheReplacedKernel:
    @given(_rows, _rows, _from, _keys, _pushed)
    @settings(max_examples=150, deadline=None)
    def test_row_bags_and_counts(self, l_rows, r_rows, from_items, keys, pushed):
        db = build_db(l_rows, r_rows)
        sql = _sql(from_items, keys, pushed)
        live_rows, live, reference_rows, reference = run_both(db, sql)
        assert bag(live_rows) == bag(reference_rows)
        assert_counts_equal(live, reference)
        # the brute-force oracle compares NaN by value (never equal); the
        # engine's keys hold the table's canonical NaN object, which a dict
        # finds by identity — they can only be compared where NaN keys
        # cannot meet
        nan_meets = "l.k" in keys and all(
            any(row[0] == "nan" for row in rows) for rows in (l_rows, r_rows)
        )
        if not nan_meets:
            assert bag(live_rows) == bag(reference_execute(db, sql))

    @given(_rows, _rows, _from, _keys, _pushed)
    @settings(max_examples=60, deadline=None)
    def test_order_by_is_list_equal(self, l_rows, r_rows, from_items, keys, pushed):
        db = build_db(l_rows, r_rows)
        sql = _sql(from_items, keys, pushed, tail=" ORDER BY a, b")
        live_rows, live, reference_rows, reference = run_both(db, sql)
        assert live_rows == reference_rows
        assert_counts_equal(live, reference)

    @given(_rows, _from, _keys, _pushed)
    @settings(max_examples=30, deadline=None)
    def test_empty_build_side(self, rows, from_items, keys, pushed):
        for db in (build_db([], rows), build_db(rows, [])):
            live_rows, live, reference_rows, reference = run_both(
                db, _sql(from_items, keys, pushed)
            )
            assert live_rows == reference_rows == []
            assert_counts_equal(live, reference)

    @pytest.mark.parametrize("build_first", ["left", "right"])
    def test_either_child_may_build(self, build_first):
        """The child with the smaller estimate builds; the other one, a
        scan, receives its keys — whichever side of the join it is on."""
        small = [(float(i), 0, i) for i in range(3)]
        large = [(float(i % 5), 0, i % 4) for i in range(40)]
        db = build_db(small, large) if build_first == "left" else build_db(large, small)
        live_rows, live, reference_rows, reference = run_both(
            db, _sql("l, r", "l.k = r.k", None)
        )
        assert bag(live_rows) == bag(reference_rows) and live_rows
        assert_counts_equal(live, reference)
        fused = [op.label for op in live.operations if "⋉" in op.label]
        probe, build = ("r", "l") if build_first == "left" else ("l", "r")
        assert fused == [f"scan({probe} as {probe}) ⋉ {build}[k]"]

    @pytest.mark.parametrize("profile", [MARIADB, MYSQL], ids=lambda p: p.name)
    def test_other_join_algorithms_are_left_alone(self, profile):
        db = build_db([(1.0, 0, 1)] * 3, [(1.0, 0, 2)] * 5)
        live_rows, live, reference_rows, reference = run_both(
            db, _sql("l, r", "l.k = r.k", "r.b > 1"), profile
        )
        assert live_rows == reference_rows and len(live_rows) == 15
        assert [(op.label, op.tuples_in, op.tuples_out) for op in live.operations] == [
            (op.label, op.tuples_in, op.tuples_out) for op in reference.operations
        ]


# --------------------------------------------------------------------------- #
# the 11 TLC queries: answers unchanged on every route
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tlc():
    dataset = generate_tlc(2, 42)
    with Session(dataset.database, tlc_access_schema()) as session:
        yield dataset, session


@pytest.mark.parametrize("index", range(11), ids=lambda i: f"Q{i + 1}")
def test_tlc_answers_unchanged(tlc, index):
    dataset, session = tlc
    query = tlc_queries(dataset.params)[index]
    _, live, reference_rows, reference = run_both(dataset.database, query.sql)
    assert_counts_equal(live, reference)
    expected = bag(reference_rows)
    for profile in (POSTGRESQL, MARIADB, MYSQL):
        answer = ConventionalEngine(dataset.database, profile).execute(query.sql)
        assert bag(answer.rows) == expected, profile.name
    for allow_partial in (True, False):
        result = session.run(
            query.sql, allow_partial=allow_partial, use_result_cache=False
        )
        if query.covered and not session.beas.check(query.sql).bag_exact:
            # a bounded plan that is not bag-exact answers as a set
            assert set(result.rows) == set(expected)
        else:
            assert bag(result.rows) == expected
        if not query.covered:
            assert result.mode is (
                ExecutionMode.PARTIAL if allow_partial else ExecutionMode.CONVENTIONAL
            )


# --------------------------------------------------------------------------- #
# a Q11-shaped query: bounded dim prefix, big has no access constraint
# --------------------------------------------------------------------------- #
SQL = """
    SELECT DISTINCT b.grp FROM big b, dim d
    WHERE d.kind = 'red' AND d.zone = 'n' AND b.k = d.k AND b.val > 50
"""
DIM_KZ = AccessConstraint("dim", ["kind", "zone"], ["k"], 100, name="dim_kz")
DIM_K = AccessConstraint("dim", ["k"], ["kind", "zone"], 1, name="dim_k")
#: big rows whose key meets the prefix (dim's red/n keys are k1, k3 .. k11)
JOINING = [(f"k{1 + 2 * (i % 6)}", f"g{i % 5}", 45 + i) for i in range(12)]


def q11_shaped(big_rows: int) -> Database:
    """``big_rows`` tuples in ``big``, of which exactly ``JOINING`` carry a
    key of the bounded prefix — the rest are filler whatever the size."""
    db = Database(
        DatabaseSchema(
            [
                TableSchema(
                    "big",
                    [("k", DataType.STRING), ("grp", DataType.STRING), ("val", DataType.INT)],
                ),
                TableSchema(
                    "dim",
                    [("k", DataType.STRING), ("kind", DataType.STRING), ("zone", DataType.STRING)],
                    keys=[("k",)],
                ),
            ]
        )
    )
    for i in range(26):
        db.insert("dim", (f"k{i}", "red" if i % 2 else "blue", "n" if i < 13 else "s"))
    filler = [(f"x{i % 997}", f"g{i % 5}", i % 100) for i in range(big_rows - len(JOINING))]
    stride = max(1, len(filler) // len(JOINING))
    rows = []
    for i, row in enumerate(JOINING):  # spread through the table, not bunched
        rows.extend(filler[i * stride : (i + 1) * stride])
        rows.append(row)
    rows.extend(filler[len(JOINING) * stride :])
    db.table("big").rows = Table.from_trusted_rows(db.table("big").schema, rows).rows
    return db


@pytest.fixture
def predicate_calls(monkeypatch):
    """Counts every call of every interpreted scan/filter predicate."""
    calls = [0]

    def counting(expr, layout, aggregate_values=None):
        predicate = compile_predicate(expr, layout, aggregate_values)

        def counted(row):
            calls[0] += 1
            return predicate(row)

        return counted

    monkeypatch.setattr(physical, "compile_predicate", counting)
    return calls


@pytest.fixture
def analyze_calls(monkeypatch):
    calls = [0]
    analyze = BEPlanOptimizer.analyze

    def counting(self, query):
        calls[0] += 1
        return analyze(self, query)

    monkeypatch.setattr(BEPlanOptimizer, "analyze", counting)
    return calls


class TestProportionality:
    @pytest.mark.parametrize("big_rows", [2_000, 200_000])
    def test_interpreted_work_follows_the_joining_rows(self, big_rows, predicate_calls):
        db = q11_shaped(big_rows)
        with Session(db, AccessSchema([DIM_KZ, DIM_K])) as session:
            result = session.run(SQL, use_result_cache=False)
        assert result.mode is ExecutionMode.PARTIAL
        (fused,) = [op for op in result.metrics.operations if "⋉" in op.label]
        assert fused.label == "scan(big as b) ⋉ __bounded__[k]"
        # every tuple of the table is read and counted ...
        assert fused.tuples_in == len(db.table("big")) == big_rows
        assert result.metrics.tuples_scanned == big_rows + 6  # + the 6-row prefix
        # ... the pushed-down `b.val > 50` is interpreted on the tuples
        # that can join, once each, at either size
        assert predicate_calls[0] == len(JOINING)
        assert fused.tuples_out == sum(1 for row in JOINING if row[2] > 50) == 6
        assert sorted(result.rows) == sorted(
            {(row[1],) for row in JOINING if row[2] > 50}
        )

    def test_conventional_engine_passes_keys_sideways_too(self, predicate_calls):
        db = q11_shaped(2_000)
        answer = ConventionalEngine(db).execute(SQL)
        labels = [op.label for op in answer.metrics.operations]
        assert "scan(big as b) ⋉ d[k]" in labels
        assert answer.metrics.tuples_scanned == 2_000 + 26
        # dim's own predicate on its 26 tuples, big's on the joining ones
        assert predicate_calls[0] == 26 + len(JOINING)


class TestPinnedToTheDecision:
    def test_second_request_performs_no_analysis(self, analyze_calls):
        with Session(q11_shaped(500), AccessSchema([DIM_KZ, DIM_K])) as session:
            first = session.run(SQL, use_result_cache=False)
            assert analyze_calls[0] == 1
            again = session.run(SQL, use_result_cache=False)
            assert analyze_calls[0] == 1
        assert first.mode is again.mode is ExecutionMode.PARTIAL
        assert again.metrics.decision_provenance == "cached"
        assert again.decision.coverage.partial is first.decision.coverage.partial
        assert sorted(first.rows) == sorted(again.rows)

    def test_no_useful_prefix_is_pinned_too(self, analyze_calls):
        with Session(q11_shaped(500), AccessSchema()) as session:
            for _ in range(3):
                result = session.run(SQL, use_result_cache=False)
                assert result.mode is ExecutionMode.CONVENTIONAL
                assert result.decision.coverage.partial is None
        assert analyze_calls[0] == 1

    def test_schema_change_re_analyses(self, analyze_calls):
        """No stale PartialPlan after a generation bump."""
        db = q11_shaped(500)
        expected = sorted(ConventionalEngine(db).execute(SQL).rows)
        with Session(db, AccessSchema([DIM_KZ, DIM_K])) as session:
            pinned = session.run(SQL, use_result_cache=False)
            assert pinned.mode is ExecutionMode.PARTIAL and analyze_calls[0] == 1

            session.unregister("dim_kz")  # the prefix's only way into dim
            dropped = session.run(SQL, use_result_cache=False)
            assert analyze_calls[0] == 2
            assert dropped.mode is ExecutionMode.CONVENTIONAL
            assert dropped.decision.coverage.partial is None
            assert dropped.decision.generation > pinned.decision.generation

            session.register(DIM_KZ)
            back = session.run(SQL, use_result_cache=False)
            assert analyze_calls[0] == 3
            assert back.mode is ExecutionMode.PARTIAL
            assert back.decision.coverage.partial is not pinned.decision.coverage.partial
        assert sorted(pinned.rows) == sorted(dropped.rows) == sorted(back.rows) == expected

    def test_not_covered_decision_has_no_access_bound(self):
        """The benchmark's bound check keys on ``access_bound``: a partially
        bounded answer scans, so it must not look bounded."""
        with Session(q11_shaped(500), AccessSchema([DIM_KZ, DIM_K])) as session:
            result = session.run(SQL)
            decision = session.query(SQL).decide()
        for made in (result.decision, decision):
            assert not made.covered
            assert made.coverage.partial is not None
            assert made.access_bound is None and made.tight_access_bound is None
            assert made.within_budget is None

    def test_one_pinned_plan_read_by_many_threads(self, analyze_calls):
        """The pinned PartialPlan is shared, read-only state: more threads
        than cores execute it at once and every answer is the serial one."""
        db = q11_shaped(3_000)
        expected = sorted(ConventionalEngine(db).execute(SQL).rows)
        threads, rounds = 8, 25
        answers: list = []
        errors: list = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Session(db, AccessSchema([DIM_KZ, DIM_K])) as session:
                barrier = threading.Barrier(threads)

                def worker():
                    try:
                        barrier.wait(timeout=30)
                        for _ in range(rounds):
                            result = session.run(SQL, use_result_cache=False)
                            answers.append((result.mode, sorted(result.rows)))
                    except Exception as error:  # noqa: BLE001 - reported below
                        errors.append(error)

                pool = [threading.Thread(target=worker) for _ in range(threads)]
                deadline = time.monotonic() + 120
                for thread in pool:
                    thread.start()
                for thread in pool:
                    thread.join(timeout=max(0.0, deadline - time.monotonic()))
                assert not any(thread.is_alive() for thread in pool)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert answers == [(ExecutionMode.PARTIAL, expected)] * (threads * rounds)
        # racing first requests may each decide; nobody analyses after that
        assert 1 <= analyze_calls[0] <= threads
