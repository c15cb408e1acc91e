"""Conventional query engine (S4): the host-DBMS / comparator substrate.

This engine plays the role PostgreSQL plays in the paper's demo: it parses
and answers arbitrary queries in the supported fragment by scanning base
tables, so its cost grows with ``|D|``. Three :class:`EngineProfile`
configurations stand in for the commercial systems of the evaluation
(PostgreSQL / MySQL / MariaDB) — see :mod:`repro.engine.profiles` for
the substitution rationale.
"""

from repro.engine.executor import ConventionalEngine, QueryResult
from repro.engine.pool import EnginePool
from repro.engine.profiles import EngineProfile, POSTGRESQL, MYSQL, MARIADB, PROFILES
from repro.engine.metrics import ExecutionMetrics

__all__ = [
    "ConventionalEngine",
    "QueryResult",
    "EngineProfile",
    "EnginePool",
    "ExecutionMetrics",
    "POSTGRESQL",
    "MYSQL",
    "MARIADB",
    "PROFILES",
]
