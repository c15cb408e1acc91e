"""Incremental maintenance of access indices under data updates.

The invariant (property-tested): after any sequence of inserts/deletes
routed through :class:`MaintenanceManager`, every access index equals a
from-scratch rebuild over the updated table, at cost proportional to the
batch size — the observable contract of the "optimal incremental
algorithms" the paper cites from [5].

Inserts can violate a cardinality bound (an X-value gaining an
(N+1)-th distinct Y-value). The violation policy decides what happens:

* ``REJECT`` — refuse the whole batch atomically (the default; datasets
  must keep conforming so deduced bounds stay trustworthy);
* ``ADJUST`` — accept and *widen* the constraint's N to the new maximum,
  re-registering the adjusted constraint (the paper's "periodically
  adjusts constraints in A").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.access.catalog import ASCatalog
from repro.access.constraint import AccessConstraint
from repro.errors import ConformanceError, MaintenanceError, StorageError


class ViolationPolicy(enum.Enum):
    REJECT = "reject"
    ADJUST = "adjust"


@dataclass
class UpdateBatch:
    """Summary of one applied batch.

    ``table_version`` is the table's :attr:`~repro.storage.table.Table.
    version` after the batch committed — the data generation every
    result computed over this batch carries. Concurrent clients (and the
    differential fuzz harness) use it to pin which snapshot an answer
    reflects.
    """

    table: str
    inserted: int = 0
    deleted: int = 0
    adjusted_constraints: list[str] = field(default_factory=list)
    table_version: int = 0


class MaintenanceManager:
    """Routes table updates through the catalog's indices."""

    def __init__(
        self,
        catalog: ASCatalog,
        *,
        policy: ViolationPolicy = ViolationPolicy.REJECT,
    ):
        self._catalog = catalog
        self.policy = policy

    # ------------------------------------------------------------------ #
    def insert(self, table_name: str, rows: Sequence[Sequence[Any]]) -> UpdateBatch:
        """Insert ``rows`` into the table and all affected indices.

        Under ``REJECT``, a bound violation rolls the whole batch back
        (table and indices are left exactly as before).
        """
        table = self._catalog.database.table(table_name)
        constraints = self._catalog.constraints_for(table_name)
        batch = UpdateBatch(table=table_name)

        applied: list[tuple] = []
        applied_index_rows: dict[str, int] = {c.name: 0 for c in constraints}
        try:
            for row in rows:
                stored = table.insert(row)
                applied.append(stored)
                for constraint in constraints:
                    index = self._catalog.index_for(constraint)
                    validate = self.policy is ViolationPolicy.REJECT
                    try:
                        index.insert_row(stored, validate=validate)
                    except ConformanceError:
                        # roll back this row from the table before re-raising
                        raise
                    applied_index_rows[constraint.name] += 1
                batch.inserted += 1
        except ConformanceError as error:
            self._rollback_inserts(table, constraints, applied, applied_index_rows)
            raise MaintenanceError(
                f"insert batch rejected: {error}"
            ) from error

        if self.policy is ViolationPolicy.ADJUST:
            batch.adjusted_constraints = self._adjust_bounds(constraints)
        batch.table_version = table.version
        return batch

    def _rollback_inserts(
        self,
        table,
        constraints: list[AccessConstraint],
        applied: list[tuple],
        applied_index_rows: dict[str, int],
    ) -> None:
        # the batch's rows are the table's tail: this writer appended them
        table.undo_inserts(len(applied))
        # undo the index insertions that did succeed
        for constraint in constraints:
            index = self._catalog.index_for(constraint)
            for row in applied[: applied_index_rows[constraint.name]]:
                index.delete_row(row)

    def _adjust_bounds(self, constraints: list[AccessConstraint]) -> list[str]:
        """Widen any constraint whose index now exceeds its declared N."""
        adjusted: list[str] = []
        for constraint in list(constraints):
            index = self._catalog.index_for(constraint)
            actual = index.max_bucket_size
            if actual > constraint.n:
                widened = AccessConstraint(
                    constraint.relation,
                    constraint.x,
                    constraint.y,
                    actual,
                    name=constraint.name,
                )
                # swap the constraint object, keeping the built index
                self._catalog.schema.remove(constraint.name)
                self._catalog.schema.add(widened)
                index.constraint = widened
                adjusted.append(constraint.name)
        if adjusted:
            # widened bounds change deduced plan bounds: cached coverage
            # decisions must be re-checked
            self._catalog.note_schema_change()
        return adjusted

    # ------------------------------------------------------------------ #
    def delete(self, table_name: str, rows: Sequence[Sequence[Any]]) -> UpdateBatch:
        """Delete one occurrence of each row (bag semantics) everywhere.

        A batch naming a row that is not present is refused before
        anything is touched: a missing row means caller state is stale.
        """
        removed = apply_delete(self._catalog, table_name, rows)
        table = self._catalog.database.table(table_name)
        return UpdateBatch(
            table=table_name, deleted=len(removed), table_version=table.version
        )


def apply_delete(
    catalog: ASCatalog, table_name: str, rows: Sequence[Sequence[Any]]
) -> list[tuple]:
    """Validate, then remove ``rows`` from the table and every index on
    it, at cost proportional to the batch. The one delete path: live
    maintenance and WAL replay both end here. Returns the removed rows."""
    table = catalog.database.table(table_name)
    try:
        removed = table.delete_rows(rows, strict=True)
    except StorageError as error:
        raise MaintenanceError(f"delete batch rejected: {error}") from error
    for constraint in catalog.constraints_for(table_name):
        index = catalog.index_for(constraint)
        for row in removed:
            index.delete_row(row)
    return removed
