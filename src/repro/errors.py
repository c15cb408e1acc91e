"""Exception hierarchy for the BEAS reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base class. Sub-hierarchies mirror the subsystems:
SQL frontend, catalog/storage, access schema, and the bounded-evaluation
core.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # import only for annotations: errors must stay leaf-level
    from repro.access.conformance import Violation


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SQLError(ReproError):
    """Base class for SQL frontend errors."""


class LexerError(SQLError):
    """Raised when the lexer encounters an invalid character or literal."""

    def __init__(self, message: str, position: int, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.position = position
        self.line = line
        self.column = column


class ParseError(SQLError):
    """Raised when the parser cannot derive a statement from the tokens."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class NormalizationError(SQLError):
    """Raised when a query cannot be brought into canonical SPJA form."""


class CatalogError(ReproError):
    """Base class for schema/catalog errors."""


class UnknownTableError(CatalogError):
    """Raised when a referenced table does not exist."""

    def __init__(self, table: str) -> None:
        super().__init__(f"unknown table: {table!r}")
        self.table = table


class UnknownColumnError(CatalogError):
    """Raised when a referenced column does not exist."""

    def __init__(self, column: str, table: Optional[str] = None) -> None:
        where = f" in table {table!r}" if table else ""
        super().__init__(f"unknown column: {column!r}{where}")
        self.column = column
        self.table = table


class AmbiguousColumnError(CatalogError):
    """Raised when an unqualified column name matches several tables."""

    def __init__(self, column: str, tables: Sequence[str]) -> None:
        super().__init__(
            f"ambiguous column {column!r}: present in {', '.join(sorted(tables))}"
        )
        self.column = column
        self.tables = list(tables)


class TypeMismatchError(CatalogError):
    """Raised when a value does not match the declared column type."""


class StorageError(ReproError):
    """Base class for storage-layer errors."""


class AccessSchemaError(ReproError):
    """Base class for access-schema errors."""


class ConformanceError(AccessSchemaError):
    """Raised when a dataset violates an access constraint."""

    def __init__(
        self, message: str, violations: Optional[Sequence["Violation"]] = None
    ) -> None:
        super().__init__(message)
        self.violations: list["Violation"] = list(violations or [])


class BEASError(ReproError):
    """Invalid BEAS configuration.

    Raised at construction time for bad engine options — an unknown
    ``executor`` mode, a non-integer or non-positive
    ``rows_per_batch``/``parallelism``, a malformed ``BEAS_*``
    environment override (see :mod:`repro.config`), an unknown pool
    dispatch strategy, or an inconsistent
    :class:`~repro.beas.session.ExecutionOptions` layer — so
    misconfiguration fails with a clear message instead of a downstream
    execution error.
    """


class ExecutionError(ReproError):
    """Raised when a physical plan fails during execution."""


class PlanningError(ReproError):
    """Raised when no executable plan can be produced for a query."""


class NotCoveredError(PlanningError):
    """Raised when a query is required to be covered but is not.

    ``reasons`` carries human-readable explanations of why the coverage
    check failed (one entry per uncovered occurrence or attribute).
    """

    def __init__(self, message: str, reasons: Optional[Sequence[str]] = None) -> None:
        super().__init__(message)
        self.reasons = list(reasons or [])


class BudgetExceededError(PlanningError):
    """Raised when the deduced access bound exceeds the user's budget."""

    def __init__(self, bound: int, budget: int) -> None:
        super().__init__(
            f"deduced access bound {bound} exceeds the budget of {budget} tuples"
        )
        self.bound = bound
        self.budget = budget


class DiscoveryError(ReproError):
    """Base class for access-schema discovery errors."""


class MaintenanceError(ReproError):
    """Base class for incremental-maintenance errors."""


class ServingError(ReproError):
    """Base class for prepared-query serving errors (repro.serving)."""


class UnknownParameterError(ServingError):
    """A bind override names a slot the prepared template does not have."""

    def __init__(self, name: str, known: Sequence[str]) -> None:
        super().__init__(
            f"unknown parameter {name!r}; template slots: "
            f"{', '.join(known) or '(none)'}"
        )
        self.name = name
        self.known = list(known)
