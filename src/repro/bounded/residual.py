"""The residual of a partially bounded plan, compiled once.

The BE Plan Optimizer (:mod:`repro.bounded.optimizer`) runs a bounded
prefix and finishes the query on the host. Like a bounded plan's
skeleton (:mod:`repro.bounded.skeleton`), the finish depends on the
query's shape only, so it is compiled once per
:class:`~repro.bounded.optimizer.PartialPlan` — when the plan is made —
and every request, a rebound one included, runs that one
:class:`Residual`. It is an ordered list of steps over the rows of the
prefix's answer (labelled by the attributes they hold), and it ends in
one :class:`~repro.engine.physical.PreparedTail` over the whole query:

* a **probe step** adds an uncovered occurrence equated with attributes
  already materialised. Each distinct key of the intermediate is looked
  up in the relation's key index on the equated columns
  (:meth:`~repro.storage.table.Table.key_index`), and the rows it holds
  are joined to the intermediate rows with that key. The request that
  builds the index reads every row of the relation, and counts them all
  in ``tuples_scanned`` as a scan would; a later one counts the rows of
  the buckets it read;
* a **scan step** adds an occurrence equated with nothing materialised:
  every row is read, counted, and crossed with the intermediate;
* either applies the occurrence's own selections and single-relation
  filters to the rows it read, before it projects them;
* a **filter step** applies a predicate over several occurrences once
  they are all materialised.

The prefix's rows count as scanned too. A selection keeps the values of
one position of the constant vector: the prefix skeleton's vector,
extended by one entry per constant class the residual selects on. A
rebound request brings its own vector (:mod:`repro.bounded.rebind`), so
it patches nothing here.
"""

from __future__ import annotations

import time

from repro.bounded.planner import class_constant_map, equality_classes
from repro.bounded.skeleton import Constants
from repro.catalog.schema import DatabaseSchema
from repro.engine.expressions import compile_predicate
from repro.engine.logical import MaterializedNode, explain
from repro.engine.metrics import ExecutionMetrics
from repro.engine.physical import Intermediate, PreparedTail
from repro.engine.planner import attach_tail, scan_predicate
from repro.sql.normalize import Attribute, ConjunctiveQuery, ResolvedPredicate
from repro.sql.printer import expression_to_sql
from repro.storage.database import Database
from repro.storage.table import group_by_key, key_tuples

Row = tuple
#: the binding the prefix's rows go by in labels and listings
PREFIX = "__bounded__"


class _Step:
    """A probe step (``key`` non-empty) or a scan step: one uncovered
    occurrence joined to the intermediate, then the filter steps that
    its columns complete."""

    def __init__(
        self,
        cq: ConjunctiveQuery,
        binding: str,
        schema: DatabaseSchema,
        labels: list[Attribute],
        residual: set[str],
        slots: dict[Attribute, int],
        pending: list[ResolvedPredicate],
    ) -> None:
        self.binding = binding
        self.table = cq.occurrences[binding]
        table = schema.table(self.table)
        layout = {label: i for i, label in enumerate(labels)}
        #: (column of this occurrence, materialised attribute it equals)
        self.key = _key_of(cq, binding, {label.binding for label in labels})
        self.index_positions = tuple(table.position(c) for c, _ in self.key)
        self.key_positions = [layout[attr] for _, attr in self.key]
        self.columns = sorted(cq.attributes_of(binding))
        self.project = table.positions(self.columns)
        #: (row position, constant position) of each selection
        self.selections = [
            (table.position(attr.column), slots[attr])
            for attr in cq.selections
            if attr.binding == binding
        ]
        predicate = scan_predicate(cq, binding, selections=False)
        self.predicate = (
            None
            if predicate is None
            else compile_predicate(
                predicate,
                {Attribute(binding, c): i for i, c in enumerate(table.column_names)},
            )
        )
        origin = (a.binding if a.binding in residual else PREFIX for _, a in self.key)
        self.origin = (
            f"{','.join(dict.fromkeys(origin))}[{','.join(c for c, _ in self.key)}]"
        )
        #: the intermediate's labels once this step has run
        self.labels = labels + [Attribute(binding, column) for column in self.columns]
        layout = {label: i for i, label in enumerate(self.labels)}
        bindings = {label.binding for label in self.labels}
        ready = [p for p in pending if {a.binding for a in p.attributes} <= bindings]
        #: (expression, compiled) of each filter step it completes, which
        #: leaves ``pending``
        self.filters = [
            (p.expression, compile_predicate(p.expression, layout)) for p in ready
        ]
        pending[:] = [p for p in pending if p not in ready]

    def run(
        self,
        rows: list[Row],
        constants: Constants,
        database: Database,
        metrics: ExecutionMetrics,
    ) -> list[Row]:
        start = time.perf_counter()
        table = database.table(self.table)
        # a scan step reads every row, once for all the intermediate
        read, counted = [(rows, table.rows)], len(table)
        label = f"scan({self.table} as {self.binding})"
        if self.key:
            index = table.key_index(self.index_positions)
            built = index is None
            if index is None:
                index = table.build_key_index(self.index_positions)
            groups = group_by_key(rows, self.key_positions)
            read = [(group, index[key]) for key, group in groups.items() if key in index]
            if not built:
                counted = sum(len(bucket) for _, bucket in read)
            label = (
                f"probe({self.table} as {self.binding}"
                f"{'; index built' if built else ''}) ⋉ {self.origin}"
            )
        allowed = [(position, set(constants[slot])) for position, slot in self.selections]
        kept = [(group, self._keep(bucket, allowed)) for group, bucket in read]
        out_rows = sum(len(bucket) for _, bucket in kept)
        metrics.tuples_scanned += counted
        metrics.record(label, counted, out_rows, time.perf_counter() - start)

        start = time.perf_counter()
        joined = [
            member + row for group, bucket in kept for row in bucket for member in group
        ]
        metrics.intermediate_rows += len(joined)
        metrics.record(
            "join[hash]" if self.key else "join[cross]",
            len(rows) + out_rows,
            len(joined),
            time.perf_counter() - start,
        )
        for _, predicate in self.filters:
            start = time.perf_counter()
            rows, joined = joined, list(filter(predicate, joined))
            metrics.record(
                "filter", len(rows), len(joined), time.perf_counter() - start
            )
        return joined

    def _keep(self, rows: list[Row], allowed: list[tuple[int, set]]) -> list[Row]:
        """The occurrence's rows passing its selections and filters,
        projected onto the columns the query uses."""
        for position, values in allowed:
            rows = [
                row
                for row in rows
                if (cell := row[position]) is not None and cell in values
            ]
        if self.predicate is not None:
            rows = list(filter(self.predicate, rows))
        return list(key_tuples(rows, self.project))

    def describe(self, cq: ConjunctiveQuery) -> list[str]:
        """One line per operation :meth:`run` records, with ``cq``'s
        selections."""
        access = f"Scan {self.table} AS {self.binding}"
        if self.key:
            access = (
                f"Probe {self.table} AS {self.binding}"
                f" on ({', '.join(c for c, _ in self.key)})"
            )
        predicate = scan_predicate(cq, self.binding)
        if predicate is not None:
            access += f" filter [{expression_to_sql(predicate)}]"
        pairs = ", ".join(f"{attr} = {self.binding}.{c}" for c, attr in self.key)
        filters = [f"Filter [{expression_to_sql(e)}]" for e, _ in self.filters]
        return [access, f"Join [{pairs or 'cross'}]"] + filters


class Residual:
    """The compiled, constant-free finish of one partially bounded plan:
    its steps, the constant classes its selections read, and its tail.
    Immutable once built, so any number of requests may run it.

    ``labels`` are the attributes of the prefix's rows, in order;
    ``offset`` is where the residual's constants start in a rebound
    vector (after the prefix skeleton's)."""

    def __init__(
        self,
        cq: ConjunctiveQuery,
        labels: list[Attribute],
        uncovered: list[str],
        offset: int,
        schema: DatabaseSchema,
    ) -> None:
        self.offset = offset
        residual = set(uncovered)
        self._classes = classes = equality_classes(cq)
        # every selection's root is found (and its path compressed) here,
        # so ``constants`` only reads the classes
        found = {a: classes.find(a) for a in cq.selections}
        #: the constant classes the residual selects on, in vector order
        self.roots = list(
            dict.fromkeys(root for a, root in found.items() if a.binding in residual)
        )
        slots = {
            a: self.roots.index(root) for a, root in found.items() if root in self.roots
        }
        # a filter over several occurrences, one of them uncovered, waits
        # for all of them (one over a single occurrence runs where it is read)
        pending = [
            predicate
            for predicate in cq.filters
            if len(bindings := {attr.binding for attr in predicate.attributes}) > 1
            and bindings & residual
        ]
        self.steps: list[_Step] = []
        remaining = list(uncovered)
        while remaining:
            materialised = {label.binding for label in labels}
            # in query order, an occurrence probed by key before a scanned one
            binding = next(
                (b for b in remaining if _key_of(cq, b, materialised)), remaining[0]
            )
            remaining.remove(binding)
            step = _Step(cq, binding, schema, labels, residual, slots, pending)
            self.steps.append(step)
            labels = step.labels

        leaf = MaterializedNode(list(labels), [])
        root = attach_tail(leaf, cq)
        self.tail = PreparedTail(root, leaf)
        #: the tail's operators in execution order, as the listing names them
        self._tail_lines = [
            line.strip() for line in reversed(explain(root).splitlines()[:-1])
        ]

    def constants(self, cq: ConjunctiveQuery) -> Constants:
        """The residual's own constants under ``cq`` (the plan's query or
        a copy with other constants written in), one merged tuple per
        class it selects on."""
        merged = class_constant_map(cq, self._classes)
        return tuple(merged[root] for root in self.roots)

    def run(
        self,
        prefix_rows: list,
        constants: Constants,
        database: Database,
        metrics: ExecutionMetrics,
    ) -> Intermediate:
        """Finish the query on the prefix's rows with the residual's
        ``constants`` (:meth:`constants`, or a rebound vector's tail)."""
        start = time.perf_counter()
        rows: list[Row] = list(map(tuple, prefix_rows))
        metrics.tuples_scanned += len(rows)
        metrics.record(
            f"scan({PREFIX} as {PREFIX})",
            len(rows),
            len(rows),
            time.perf_counter() - start,
        )
        for step in self.steps:
            rows = step.run(rows, constants, database, metrics)
        return self.tail.run(rows, metrics)

    def explain(self, cq: ConjunctiveQuery) -> str:
        """The steps as they run, one line per operation they record,
        with ``cq``'s selections (the plan's, or a rebound copy's)."""
        lines = [line for step in self.steps for line in step.describe(cq)]
        lines = [f"Scan {PREFIX} AS {PREFIX}"] + lines + self._tail_lines
        return "\n".join(f"  {line}" for line in lines)


def _key_of(
    cq: ConjunctiveQuery, binding: str, materialised: set[str]
) -> list[tuple[str, Attribute]]:
    """``binding``'s equalities with materialised attributes, as (its
    column, the attribute): the key it is probed by."""
    return [
        (mine.column, other)
        for left, right in cq.equalities
        for mine, other in ((left, right), (right, left))
        if mine.binding == binding and other.binding in materialised
    ]
