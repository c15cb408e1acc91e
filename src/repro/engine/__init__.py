"""Conventional query engine (S4): the host-DBMS / comparator substrate.

This engine plays the role PostgreSQL plays in the paper's demo: it parses
and answers arbitrary queries in the supported fragment by scanning base
tables, so its cost grows with ``|D|``. It is also the one baseline of
the Fig. 3 panel and the Fig. 4 sweep: a single in-process engine,
measured, standing in for the paper's PostgreSQL / MySQL / MariaDB.
"""

from repro.engine.executor import ConventionalEngine, QueryResult
from repro.engine.pool import EnginePool
from repro.engine.metrics import ExecutionMetrics

__all__ = [
    "ConventionalEngine",
    "QueryResult",
    "EnginePool",
    "ExecutionMetrics",
]
