"""Conformance checking: does ``D |= A`` hold?

A relation instance conforms to ``R(X -> Y, N)`` when every X-value has at
most N distinct Y-values (paper §2): an access constraint is an embedded
dependency, and conformance checks that the data satisfies it. The check
builds the constraint's :class:`~repro.access.index.AccessIndex` without
validation and reads its buckets, so it counts NULL and NaN exactly as the
index does. It reports *all* violations (each offending X-value with its
actual count, in the order the index first saw the keys), which the
maintenance module uses to propose adjusted bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.access.constraint import AccessConstraint
from repro.access.index import AccessIndex
from repro.access.schema import AccessSchema
from repro.storage.database import Database
from repro.storage.table import Table


@dataclass(frozen=True)
class Violation:
    """One X-value whose distinct-Y count exceeds the declared bound."""

    constraint: AccessConstraint
    x_value: tuple
    actual: int

    def __str__(self) -> str:
        return (
            f"{self.constraint.name}: X={self.x_value!r} has {self.actual} "
            f"distinct Y-values (bound {self.constraint.n})"
        )


@dataclass
class ConformanceReport:
    """Outcome of checking one constraint (or a whole schema) against data."""

    violations: list[Violation] = field(default_factory=list)
    checked_constraints: int = 0
    # largest distinct-Y group seen anywhere: the tightest N that conforms
    max_group_size: int = 0

    @property
    def conforms(self) -> bool:
        return not self.violations

    def merge(self, other: "ConformanceReport") -> None:
        self.violations.extend(other.violations)
        self.checked_constraints += other.checked_constraints
        self.max_group_size = max(self.max_group_size, other.max_group_size)


def check_constraint(table: Table, constraint: AccessConstraint) -> ConformanceReport:
    """Check one constraint against one table, reporting every violation."""
    index = AccessIndex(constraint).build(table, validate=False)
    return ConformanceReport(
        violations=[
            Violation(constraint, key, size)
            for key, size in index.bucket_sizes()
            if size > constraint.n
        ],
        checked_constraints=1,
        max_group_size=index.max_bucket_size,
    )


def check_database(database: Database, schema: AccessSchema) -> ConformanceReport:
    """Check ``D |= A``: every constraint of ``schema`` against ``database``."""
    report = ConformanceReport()
    for constraint in schema:
        table = database.table(constraint.relation)
        report.merge(check_constraint(table, constraint))
    return report
