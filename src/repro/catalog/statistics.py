"""Lightweight table statistics.

The conventional planner uses row counts and per-column distinct counts for
join ordering and selectivity estimates. Everything here is exact (computed
over the data), which is affordable for an in-memory engine and keeps tests
deterministic. Grouping a relation by ``X`` (index sizes, the tightest
bound ``N`` of a candidate, conformance) is not done here: the access
index does it (:mod:`repro.access.index`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.table import Table


@dataclass
class ColumnStatistics:
    """Statistics for one column of one table."""

    name: str
    distinct_count: int = 0
    null_count: int = 0
    min_value: Any = None
    max_value: Any = None


@dataclass
class TableStatistics:
    """Statistics for a whole table."""

    table: str
    row_count: int = 0
    columns: dict[str, ColumnStatistics] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStatistics:
        return self.columns.get(name, ColumnStatistics(name=name))

    def distinct(self, name: str) -> int:
        return self.column(name).distinct_count


def collect_statistics(table: "Table") -> TableStatistics:
    """Compute exact statistics for ``table`` in one pass per column."""
    stats = TableStatistics(table=table.schema.name, row_count=len(table))
    for position, column in enumerate(table.schema.columns):
        seen: set[Any] = set()
        nulls = 0
        min_value: Any = None
        max_value: Any = None
        for row in table.rows:
            value = row[position]
            if value is None:
                nulls += 1
                continue
            seen.add(value)
            if min_value is None or value < min_value:
                min_value = value
            if max_value is None or value > max_value:
                max_value = value
        stats.columns[column.name] = ColumnStatistics(
            name=column.name,
            distinct_count=len(seen),
            null_count=nulls,
            min_value=min_value,
            max_value=max_value,
        )
    return stats

