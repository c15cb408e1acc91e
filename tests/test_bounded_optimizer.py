"""BE Plan Optimizer tests: partially bounded plans."""

import pytest

from repro import (
    AccessConstraint,
    AccessSchema,
    ASCatalog,
    BEPlanOptimizer,
    ConventionalEngine,
    Database,
    DatabaseSchema,
    DataType,
    ExecutionMode,
    ExecutionOptions,
    Session,
    TableSchema,
)
from repro.bounded.executor import BoundedPlanExecutor
from repro.workloads.tlc import generate_tlc, query_by_name, tlc_access_schema


def schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            TableSchema(
                "big",
                [
                    ("k", DataType.STRING),
                    ("grp", DataType.STRING),
                    ("val", DataType.INT),
                ],
            ),
            TableSchema(
                "dim",
                [
                    ("k", DataType.STRING),
                    ("kind", DataType.STRING),
                    ("zone", DataType.STRING),
                ],
                keys=[("k",)],
            ),
        ]
    )


def build() -> tuple[Database, AccessSchema]:
    db = Database(schema())
    # dim: 26 rows, 2 kinds, 2 zones
    for i in range(26):
        db.insert(
            "dim",
            (f"k{i}", "red" if i % 2 else "blue", "n" if i < 13 else "s"),
        )
    # big: 2000 rows spread over dim keys; NO constraints on big
    for i in range(2000):
        db.insert("big", (f"k{i % 26}", f"g{i % 5}", i % 100))
    access = AccessSchema(
        [
            AccessConstraint("dim", ["kind", "zone"], ["k"], 100, name="dim_kz"),
            AccessConstraint("dim", ["k"], ["kind", "zone"], 1, name="dim_k"),
        ]
    )
    return db, access


SQL = """
    SELECT DISTINCT b.grp FROM big b, dim d
    WHERE d.kind = 'red' AND d.zone = 'n' AND b.k = d.k
"""


class TestAnalyze:
    def test_partial_plan_found(self):
        db, access = build()
        optimizer = BEPlanOptimizer(ASCatalog(db, access))
        partial = optimizer.analyze(SQL)
        assert partial is not None
        assert partial.covered_bindings == ["d"]
        assert partial.uncovered_bindings == ["b"]
        assert partial.sub_plan.access_bound == 100

    def test_describe(self):
        db, access = build()
        partial = BEPlanOptimizer(ASCatalog(db, access)).analyze(SQL)
        text = partial.describe()
        assert "bounded prefix" in text and "d" in text
        # which residual relation the prefix's keys probe, and on what
        assert partial.sideways_scans == {"b": ["k"]}
        assert "the residual probes big as b by its key index on (k)" in text

    def test_session_explain_prints_the_residual_plan(self):
        db, access = build()
        with Session(db, access) as session:
            text = session.explain(SQL)
        residual, host = text.split("host plan:")
        assert "NOT covered" in residual and "partially bounded plan" in residual
        # what a PARTIAL evaluation runs: the temporary relation joined
        # with the uncovered relation's key-index probe, dim nowhere in it ...
        assert "residual plan" in residual
        assert "Scan __bounded__ AS __bounded__" in residual
        assert "Probe big AS b on (k)" in residual and "Scan big" not in residual
        assert "Scan dim" not in residual
        # ... next to the host plan of the whole query
        assert "Scan dim AS d" in host and "Scan big AS b" in host

    def test_session_explain_without_a_prefix_is_the_host_plan(self):
        db, _ = build()
        with Session(db, AccessSchema()) as session:
            text = session.explain(SQL)
        assert "residual plan" not in text and "host plan:" in text

    def test_no_constraints_no_partial(self):
        db, _ = build()
        optimizer = BEPlanOptimizer(ASCatalog(db, AccessSchema()))
        assert optimizer.analyze(SQL) is None

    def test_unparseable_query_gives_none(self):
        db, access = build()
        optimizer = BEPlanOptimizer(ASCatalog(db, access))
        assert optimizer.analyze("SELEKT nonsense") is None

    def test_duplicate_sensitive_aggregate_without_keys_refused(self):
        """COUNT(*) over a splice whose prefix is not bag-exact is unsound:
        the optimizer must fall back."""
        db, access = build()
        access.remove("dim_k")  # dim covered only via dim_kz (exposes key k!)
        # dim_kz exposes k which IS the key of dim => still bag-exact;
        # remove the key declaration to force non-exactness
        db2 = Database(
            DatabaseSchema(
                [
                    schema().table("big"),
                    TableSchema(
                        "dim",
                        [
                            ("k", DataType.STRING),
                            ("kind", DataType.STRING),
                            ("zone", DataType.STRING),
                        ],
                    ),
                ]
            )
        )
        for table in db:
            for row in table.rows:
                db2.table(table.schema.name).insert(row)
        optimizer = BEPlanOptimizer(ASCatalog(db2, access))
        partial = optimizer.analyze(
            "SELECT COUNT(*) FROM big b, dim d "
            "WHERE d.kind = 'red' AND d.zone = 'n' AND b.k = d.k"
        )
        assert partial is None


class TestExecute:
    def test_answers_match_conventional(self):
        db, access = build()
        optimizer = BEPlanOptimizer(ASCatalog(db, access))
        partial = optimizer.analyze(SQL)
        result = optimizer.execute(partial)
        host = ConventionalEngine(db).execute(SQL)
        assert sorted(result.rows) == sorted(host.rows)

    def test_partial_scans_less_than_conventional(self):
        db, access = build()
        optimizer = BEPlanOptimizer(ASCatalog(db, access))
        partial = optimizer.analyze(SQL)
        result = optimizer.execute(partial)
        host = ConventionalEngine(db).execute(SQL)
        # the bounded prefix replaces the dim scan with index fetches
        assert result.metrics.tuples_scanned < host.metrics.tuples_scanned
        assert result.metrics.tuples_fetched > 0

    def test_aggregate_with_bag_exact_prefix(self):
        db, access = build()
        optimizer = BEPlanOptimizer(ASCatalog(db, access))
        sql = """
            SELECT b.grp, COUNT(*) AS n FROM big b, dim d
            WHERE d.kind = 'red' AND d.zone = 'n' AND b.k = d.k
            GROUP BY b.grp ORDER BY b.grp
        """
        partial = optimizer.analyze(sql)
        assert partial is not None and partial.sub_plan.bag_exact
        result = optimizer.execute(partial)
        host = ConventionalEngine(db).execute(sql)
        assert result.rows == host.rows

    def test_filters_crossing_the_split_survive(self):
        db, access = build()
        optimizer = BEPlanOptimizer(ASCatalog(db, access))
        sql = """
            SELECT DISTINCT b.grp FROM big b, dim d
            WHERE d.kind = 'red' AND d.zone = 'n' AND b.k = d.k AND b.val > 50
        """
        partial = optimizer.analyze(sql)
        result = optimizer.execute(partial)
        host = ConventionalEngine(db).execute(sql)
        assert sorted(result.rows) == sorted(host.rows)

    def test_constants_inherited_through_equality(self):
        """A selection on the uncovered side that binds a covered attribute
        through an equality class must reach the bounded prefix."""
        db, access = build()
        optimizer = BEPlanOptimizer(ASCatalog(db, access))
        sql = """
            SELECT DISTINCT b.grp FROM big b, dim d
            WHERE d.kind = 'red' AND d.zone = 'n' AND b.k = d.k
              AND b.k = 'k1'
        """
        partial = optimizer.analyze(sql)
        result = optimizer.execute(partial)
        host = ConventionalEngine(db).execute(sql)
        assert sorted(result.rows) == sorted(host.rows)


class TestPartialAnswerMetrics:
    """A PARTIAL answer's metrics are the prefix's plus the residual's."""

    @staticmethod
    def two_fetch_session(**options) -> tuple[Session, str]:
        """Q1 (as a set) with package's constraints unregistered: the
        prefix fetches business then call, package is scanned."""
        dataset = generate_tlc(2, 42)
        session = Session(
            dataset.database, tlc_access_schema(), options=ExecutionOptions(**options)
        )
        session.unregister("psi2")
        session.unregister("psi7")
        sql = query_by_name(dataset.params, "Q1").sql.replace(
            "select call.region", "select distinct call.region"
        )
        return session, sql

    def test_intermediate_rows_are_prefix_plus_residual(self):
        session, sql = self.two_fetch_session()
        with session:
            result = session.run(sql)
            partial = result.decision.coverage.partial
            beas = session.beas
            prefix = beas.runner.run_route(beas.options.executor, partial.sub_plan)
        assert result.mode is ExecutionMode.PARTIAL
        assert len(partial.sub_plan.fetch_ops) == 2
        assert prefix.metrics.intermediate_rows > 0
        (join,) = [op for op in result.metrics.operations if op.label == "join[hash]"]
        assert (
            result.metrics.intermediate_rows
            == prefix.metrics.intermediate_rows + join.tuples_out
        )
        assert result.metrics.tuples_fetched == prefix.metrics.tuples_fetched

    def test_pooled_prefix_reports_its_pool_fields(self):
        session, sql = self.two_fetch_session(parallelism=2)
        with session:
            result = session.run(sql)
        assert result.mode is ExecutionMode.PARTIAL
        assert result.metrics.pool_workers == 2
        assert result.metrics.pool_batches >= 1

    def test_no_prefix_field_is_dropped(self, monkeypatch):
        """A prefix that fell back, or ran on a replica, must not look
        clean in the PARTIAL answer."""
        execute = BoundedPlanExecutor.execute

        def fell_back(self, plan):
            result = execute(self, plan)
            result.metrics.pool_fallbacks = 2
            result.metrics.replica_id = 1
            result.metrics.wire_seconds = 0.25
            return result

        monkeypatch.setattr(BoundedPlanExecutor, "execute", fell_back)
        db, access = build()
        optimizer = BEPlanOptimizer(ASCatalog(db, access))
        metrics = optimizer.execute(optimizer.analyze(SQL)).metrics
        assert metrics.pool_fallbacks == 2
        assert metrics.replica_id == 1
        assert metrics.wire_seconds == 0.25
