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
from typing import Any, Iterable, Optional, Sequence

from repro.access.catalog import ASCatalog
from repro.access.constraint import AccessConstraint
from repro.access.index import AccessIndex
from repro.errors import MaintenanceError, StorageError


#: access-constraint name -> the X-keys whose bucket a batch changed
ChangeSet = dict[str, list[tuple]]


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

    ``changed_keys`` is the batch's change set: per access constraint
    (by name), the X-keys whose bucket gained or lost a distinct Y-value
    — the only ``fetch`` results the batch changed. The serving layer
    drops the cached answers that fetched one of them, and no other.
    """

    table: str
    inserted: int = 0
    deleted: int = 0
    adjusted_constraints: list[str] = field(default_factory=list)
    table_version: int = 0
    changed_keys: ChangeSet = field(default_factory=dict, repr=False, compare=False)


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
    def insert(self, table_name: str, rows: Iterable[Sequence[Any]]) -> UpdateBatch:
        """Insert ``rows`` into the table and all affected indices.

        Under ``REJECT``, a bound violation refuses the whole batch
        (table and indices are left exactly as before).
        """
        return self.insert_returning(table_name, rows)[0]

    def insert_returning(
        self, table_name: str, rows: Iterable[Sequence[Any]]
    ) -> tuple[UpdateBatch, list[tuple]]:
        """:meth:`insert`, and the rows as the table now stores them —
        what the WAL and a replica's delta must carry."""
        batch = UpdateBatch(table=table_name)
        stored = apply_insert(
            self._catalog,
            table_name,
            rows,
            validate=self.policy is ViolationPolicy.REJECT,
            changed=batch.changed_keys,
        )
        batch.inserted = len(stored)
        if self.policy is ViolationPolicy.ADJUST:
            batch.adjusted_constraints = self._adjust_bounds(
                self._catalog.constraints_for(table_name)
            )
        batch.table_version = self._catalog.database.table(table_name).version
        return batch, stored

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
    def delete(self, table_name: str, rows: Iterable[Sequence[Any]]) -> UpdateBatch:
        """Delete one occurrence of each row (bag semantics) everywhere.

        A batch naming a row that is not present is refused before
        anything is touched: a missing row means caller state is stale.
        """
        return self.delete_returning(table_name, rows)[0]

    def delete_returning(
        self, table_name: str, rows: Iterable[Sequence[Any]]
    ) -> tuple[UpdateBatch, list[tuple]]:
        """:meth:`delete`, and the removed rows as the table stored them
        (a caller may spell a stored ``1`` as ``1.0`` or ``True``; the
        WAL and a replica's delta must not)."""
        batch = UpdateBatch(table=table_name)
        removed = apply_delete(
            self._catalog, table_name, rows, changed=batch.changed_keys
        )
        batch.deleted = len(removed)
        batch.table_version = self._catalog.database.table(table_name).version
        return batch, removed


def _indexes_on(catalog: Any, table_name: str) -> list[AccessIndex]:
    return [
        catalog.index_for(constraint)
        for constraint in catalog.constraints_for(table_name)
    ]


def apply_insert(
    catalog: Any,
    table_name: str,
    rows: Iterable[Sequence[Any]],
    *,
    validate: bool,
    changed: Optional[ChangeSet] = None,
) -> list[tuple]:
    """Admit ``rows``, then add them to every index on the table and to
    the table, one batch call each. The one insert path: live
    maintenance, WAL replay and a replica's delta replay all end here
    (a replica's catalog has indices and no ``database``: its rows were
    admitted by the coordinator). Returns the stored rows.

    Every row is type-checked before anything is touched. With
    ``validate``, a row that would take a bucket past its bound refuses
    the batch with a :class:`MaintenanceError` naming the first such row
    and, on it, the first such constraint; table and indices are then as
    before, except that ``version`` has moved past the rows up to that
    one — caches keyed on it are dropped conservatively.

    ``changed`` gains, per constraint name, the keys whose bucket gained
    a distinct Y-value (see :meth:`AccessIndex.add_rows`); a refused
    batch leaves it alone.
    """
    table = None
    if catalog.database is not None:
        table = catalog.database.table(table_name)
    stored = list(rows) if table is None else table.admit(rows)
    pending = stored
    taken: list[tuple[AccessIndex, list[tuple]]] = []
    refused: Optional[tuple[int, AccessIndex]] = None
    gained: ChangeSet = {}
    for index in _indexes_on(catalog, table_name):
        keys: list[tuple] = []
        position = index.add_rows(pending, validate=validate, changed=keys)
        if position is None:
            taken.append((index, pending))
            if keys:
                gained[index.constraint.name] = keys
        else:
            # a later index can only come first on an earlier row
            refused, pending = (position, index), pending[:position]
    if refused is not None:
        for index, added in taken:
            index.remove_rows(added)
        position, index = refused
        if table is not None:
            table.version += position + 1
        error = index.violation(stored[position])
        raise MaintenanceError(f"insert batch rejected: {error}") from error
    if table is not None:
        table.extend(stored)
    if changed is not None:
        changed.update(gained)
    return stored


def apply_delete(
    catalog: Any,
    table_name: str,
    rows: Iterable[Sequence[Any]],
    *,
    changed: Optional[ChangeSet] = None,
) -> list[tuple]:
    """Validate, then remove ``rows`` from the table and every index on
    it, at cost proportional to the batch. The one delete path: live
    maintenance, WAL replay and a replica's delta replay all end here.
    Returns the removed rows in the batch's order, each as the table
    stored it (``1.0 == 1 == True``: a caller may spell a stored row in
    a way its column's type would not decode). ``changed`` gains, per
    constraint name, the keys whose bucket lost a distinct Y-value."""
    if catalog.database is None:
        removed = list(rows)
    else:
        try:
            removed = catalog.database.table(table_name).take_rows(rows)
        except StorageError as error:
            raise MaintenanceError(f"delete batch rejected: {error}") from error
    for index in _indexes_on(catalog, table_name):
        keys: list[tuple] = []
        index.remove_rows(removed, changed=keys)
        if keys and changed is not None:
            changed[index.constraint.name] = keys
    return removed
