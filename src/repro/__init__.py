"""repro — reproduction of *BEAS: Bounded Evaluation of SQL Queries*
(Cao, Fan, Wang, Yuan, Li, Chen; SIGMOD 2017).

BEAS answers SQL queries by accessing a bounded fraction ``D_Q`` of the
dataset ``D``, with ``Q(D_Q) = Q(D)`` and ``|D_Q|`` determined only by the
query and an *access schema* (cardinality constraints + indices) — never
by ``|D|``.

Quickstart (the unified Session/Query/Decision/Result lifecycle)::

    from repro import (
        AccessConstraint, Database, DatabaseSchema, DataType, Session,
        TableSchema,
    )

    schema = DatabaseSchema([
        TableSchema("call", [("pnum", DataType.STRING),
                             ("recnum", DataType.STRING),
                             ("date", DataType.DATE),
                             ("region", DataType.STRING)]),
    ])
    db = Database(schema)
    # ... load data ...
    with Session(db) as session:
        session.register(AccessConstraint(
            "call", ["pnum", "date"], ["recnum", "region"], 500,
            name="psi1"))
        q = session.query(
            "SELECT DISTINCT region FROM call "
            "WHERE pnum = '5550001' AND date = '2016-06-01'")
        decision = q.decide()
        assert decision.covered and decision.access_bound == 500
        result = decision.run()
        # one template, many bindings — the pinned plan is REBOUND per
        # binding (no BE Checker re-run for equal-arity bindings):
        other = q.bind(date="2016-06-02").run()

See docs/api.md for the API reference (the lifecycle, the options
precedence chain and the request path) and docs/invariants.md for the
invariants the house lint enforces.
"""

from repro.catalog.types import DataType
from repro.catalog.schema import Column, DatabaseSchema, TableSchema
from repro.storage.database import Database
from repro.storage.table import Table
from repro.access.constraint import AccessConstraint
from repro.access.schema import AccessSchema
from repro.access.index import AccessIndex
from repro.access.catalog import ASCatalog
from repro.engine.executor import ConventionalEngine, QueryResult
from repro.engine.pool import EnginePool, PoolStats
from repro.engine.profiles import EngineProfile, MARIADB, MYSQL, POSTGRESQL, PROFILES
from repro.bounded.coverage import BoundedEvaluabilityChecker, CoverageDecision
from repro.bounded.planner import BoundedPlanGenerator
from repro.bounded.executor import BoundedPlanExecutor
from repro.bounded.optimizer import BEPlanOptimizer
from repro.bounded.approximation import BoundedApproximator
from repro.bounded.analyzer import PerformanceAnalyzer
from repro.beas.system import BEAS
from repro.beas.result import ExecutionMode
from repro.beas.session import Decision, ExecutionOptions, Query, Result, Session
from repro.config import EnvConfig, load_env_config
from repro.errors import BEASError
from repro.serving import BEASServer, PreparedQuery, ServingStats

__version__ = "2.0.0"

__all__ = [
    "DataType",
    "Column",
    "TableSchema",
    "DatabaseSchema",
    "Database",
    "Table",
    "AccessConstraint",
    "AccessSchema",
    "AccessIndex",
    "ASCatalog",
    "ConventionalEngine",
    "QueryResult",
    "EngineProfile",
    "EnginePool",
    "PoolStats",
    "POSTGRESQL",
    "MYSQL",
    "MARIADB",
    "PROFILES",
    "BoundedEvaluabilityChecker",
    "CoverageDecision",
    "BoundedPlanGenerator",
    "BoundedPlanExecutor",
    "BEPlanOptimizer",
    "BoundedApproximator",
    "PerformanceAnalyzer",
    "BEAS",
    "BEASError",
    "ExecutionMode",
    "BEASServer",
    "PreparedQuery",
    "ServingStats",
    "Session",
    "Query",
    "Decision",
    "Result",
    "ExecutionOptions",
    "EnvConfig",
    "load_env_config",
    "__version__",
]
