"""AS Catalog: the offline service managing access schemas (paper §3).

The catalog's *Metadata module* maintains (a) the access schema and (b)
statistics, including index sizes, "in a system table as catalog, for query
plan generation and optimization". ``ASCatalog`` owns the built
:class:`~repro.access.index.AccessIndex` objects and exposes exactly that:
constraint lookup for the BE Query Planner and index handles + statistics
for the BE Plan Executor and Optimizer. The statistics keep no copy: each
call reads the live indices, so it sees every write and bound change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.access.conformance import ConformanceReport, check_database
from repro.access.constraint import AccessConstraint
from repro.access.index import AccessIndex
from repro.access.schema import AccessSchema
from repro.errors import AccessSchemaError, ConformanceError
from repro.storage.database import Database


@dataclass(frozen=True)
class IndexStatistics:
    """One row of the catalog's statistics 'system table'."""

    constraint_name: str
    relation: str
    key_count: int
    entry_count: int
    max_bucket_size: int
    storage_cells: int


class ASCatalog:
    """Registered access schema + built indices + statistics for one database."""

    def __init__(self, database: Database, schema: AccessSchema | None = None):
        self.database = database
        self.schema = schema or AccessSchema(name=f"{database.name}-schema")
        self._indexes: dict[str, AccessIndex] = {}
        #: Monotonic counter bumped on every access-schema change
        #: (register / unregister / bound adjustment). Cached coverage
        #: decisions are valid only while this is unchanged.
        self.schema_generation: int = 0
        if schema is not None:
            self.build_all()

    def note_schema_change(self) -> None:
        """Record an access-schema mutation (invalidates cached decisions)."""
        self.schema_generation += 1

    # ------------------------------------------------------------------ #
    # registration (Metadata module)
    # ------------------------------------------------------------------ #
    def register(self, constraint: AccessConstraint, *, validate: bool = True) -> AccessIndex:
        """Add one constraint and build its index.

        With ``validate=True`` the build fails if the data does not conform
        to the cardinality bound; the constraint is then not registered.
        """
        if constraint.name in self._indexes:
            raise AccessSchemaError(
                f"constraint {constraint.name!r} already registered"
            )
        index = self._build(constraint, validate=validate)
        if constraint.name not in self.schema:
            self.schema.add(constraint)
        self.note_schema_change()
        return index

    def build_all(self, *, validate: bool = True) -> None:
        """Build indices for every constraint of the schema not yet built."""
        for constraint in self.schema:
            if constraint.name not in self._indexes:
                self._build(constraint, validate=validate)

    def _build(self, constraint: AccessConstraint, *, validate: bool) -> AccessIndex:
        """Build one constraint's index from its table; nothing is kept
        when the build fails."""
        index = AccessIndex(constraint).build(
            self.database.table(constraint.relation), validate=validate
        )
        self._indexes[constraint.name] = index
        return index

    def set_bounds(self, bounds: Mapping[str, int]) -> list[str]:
        """Give constraints new cardinality bounds N (constraint name ->
        N), keeping each one's built index: one access-schema change for
        the lot (bound adjustment, paper §3, Maintenance). Returns the
        names changed.

        A tightening below what the data already holds is refused with a
        :class:`ConformanceError` naming the constraint, the N and its
        index's largest bucket, and then nothing changes: the whole
        mapping applies or none of it. Only the indices of constraints
        whose N goes down are scanned. Each constraint keeps its place
        in the schema."""
        changes: list[tuple[AccessIndex, AccessConstraint]] = []
        for name, n in bounds.items():
            current = self.schema.get(name)
            index = self.index_for(current)
            if n < current.n and n < (largest := index.max_bucket_size):
                raise ConformanceError(
                    f"cannot tighten {name} to N={n}: its largest bucket "
                    f"holds {largest} distinct Y-values"
                )
            adjusted = AccessConstraint(
                current.relation, current.x, current.y, n, name=name
            )
            changes.append((index, adjusted))
        for index, adjusted in changes:
            self.schema.replace(adjusted)
            index.constraint = adjusted
        if bounds:
            # new bounds change deduced plan bounds: cached coverage
            # decisions must be re-checked
            self.note_schema_change()
        return list(bounds)

    def unregister(self, name: str) -> None:
        """Drop a constraint and its index (user removal, paper §3(d)(ii))."""
        if name in self.schema:
            self.schema.remove(name)
        self._indexes.pop(name, None)
        self.note_schema_change()

    # ------------------------------------------------------------------ #
    # lookups (used by the BE planner/executor)
    # ------------------------------------------------------------------ #
    def index_for(self, constraint: AccessConstraint) -> AccessIndex:
        try:
            return self._indexes[constraint.name]
        except KeyError:
            raise AccessSchemaError(
                f"no index built for constraint {constraint.name!r}"
            ) from None

    def constraints_for(self, relation: str) -> list[AccessConstraint]:
        return self.schema.constraints_for(relation)

    def index_map(self) -> dict[str, AccessIndex]:
        """A shallow snapshot of every built index, keyed by constraint
        name. The engine pool pickles this as the per-worker warm catalog
        snapshot — workers answer fetches exclusively from these indices
        and physically cannot scan base tables."""
        return dict(self._indexes)

    def statistics(self) -> list[IndexStatistics]:
        """The catalog's statistics table, one row per index, read from
        the live indices."""
        return [
            IndexStatistics(
                constraint_name=name,
                relation=index.constraint.relation,
                key_count=index.key_count,
                entry_count=index.entry_count,
                max_bucket_size=index.max_bucket_size,
                storage_cells=index.storage_cells(),
            )
            for name, index in self._indexes.items()
        ]

    def statistics_table(self) -> "Table":
        """The statistics as a real relation — the paper's Metadata module
        keeps index statistics "in a system table as catalog"."""
        from repro.catalog.schema import TableSchema
        from repro.catalog.types import DataType
        from repro.storage.table import Table

        schema = TableSchema(
            "as_catalog",
            [
                ("constraint_name", DataType.STRING),
                ("relation", DataType.STRING),
                ("x_attrs", DataType.STRING),
                ("y_attrs", DataType.STRING),
                ("n", DataType.INT),
                ("key_count", DataType.INT),
                ("entry_count", DataType.INT),
                ("max_bucket_size", DataType.INT),
                ("storage_cells", DataType.INT),
            ],
            keys=[("constraint_name",)],
        )
        table = Table(schema)
        rows = {stats.constraint_name: stats for stats in self.statistics()}
        for constraint in self.schema:
            stats = rows.get(constraint.name)
            if stats is None:
                continue
            table.insert(
                (
                    constraint.name,
                    constraint.relation,
                    ",".join(constraint.x),
                    ",".join(constraint.y),
                    constraint.n,
                    stats.key_count,
                    stats.entry_count,
                    stats.max_bucket_size,
                    stats.storage_cells,
                )
            )
        return table

    # ------------------------------------------------------------------ #
    def verify_conformance(self) -> ConformanceReport:
        """Re-check ``D |= A`` from the base data (maintenance hook)."""
        return check_database(self.database, self.schema)

    def __iter__(self) -> Iterator[AccessConstraint]:
        return iter(self.schema)

    def __repr__(self) -> str:
        return (
            f"ASCatalog({self.database.name}: {len(self.schema)} constraints, "
            f"{len(self._indexes)} indices)"
        )
