"""How BEAS answered a query."""

from __future__ import annotations

import enum


class ExecutionMode(enum.Enum):
    """How BEAS answered a query (paper §2, steps (1)-(3))."""

    BOUNDED = "bounded"  # covered: bounded plan, exact answers
    PARTIAL = "partial"  # not covered: partially bounded plan, exact answers
    CONVENTIONAL = "conventional"  # not covered: host DBMS plan, exact answers
    APPROXIMATE = "approximate"  # over budget: resource-bounded approximation
