"""Subsumption-based result reuse: answer a query from a cached superset.

The serving layer's result cache hits only on *presentation-equal*
queries (``sql/fingerprint`` canonicalises AND/IN order and BETWEEN
spelling, nothing deeper). Dashboards, however, issue sliding-window
variants of one template — ``date >= d1 AND date <= d2`` with moving
endpoints — and the §3 bound arithmetic guarantees that a cached bounded
answer for a *wider* predicate region is a superset of every tighter
variant's answer. This module supplies the containment machinery:

* :func:`summarize_statement` extracts a :class:`QuerySummary` from a
  SELECT block — a per-attribute constraint map (point/IN value sets and
  closed/open range intervals over literal constants, the predicate
  lattice over the same equality conjuncts ``bounded/rebind.py`` patches)
  plus the residual conjuncts by canonical text, keyed under a *shape
  key* that identifies the statement with its WHERE clause erased;
* :func:`subsumes` decides whether a cached summary's predicate region
  contains a new summary's (interval containment for ranges, subset for
  IN-lists/point constants, conjunct-superset for residual selections)
  and, when it does, produces the :class:`RefilterPlan` of *delta*
  predicates distinguishing the two;
* :func:`apply_refilter` replays the delta over the cached rows,
  preserving their order.

Soundness rules (hard refusals, never best-effort):

* **Shapes.** Aggregates, GROUP BY/HAVING, DISTINCT, LIMIT/OFFSET and
  set operations are never summarised: post-filtering a superset answer
  does not commute with duplicate elimination, grouping, or row-count
  truncation.
* **NULL constants.** A summary containing a NULL constant in an
  IN-list or range slot is never judged a subset *or* superset of
  anything (UNKNOWN poisons containment in both directions — mirroring
  the ``_KeyPlan`` const-combo skip in ``bounded.skeleton``); the
  summary is marked non-reusable at extraction time and the comparators
  guard again defensively.
* **Incomparable constants.** Any ``TypeError`` while comparing bounds
  (``1`` vs ``'1'``) refuses rather than guessing an order.
* **Column visibility.** Every delta predicate must resolve to exactly
  one output column of the cached answer (by select-item match, or by
  name under a star over a single-occurrence FROM); multi-occurrence
  statements require qualified references, and a label that is missing
  or duplicated in the cached column list refuses at refilter time.

Row-order preservation: a bounded execution enumerates fetch keys in
canonical sorted order and applies stable sorts for ORDER BY, and
filtering a row stream commutes with both — so the re-filtered cached
rows are exactly the rows (and the order) a fresh bounded execution of
the tighter query would produce. The subsumption differential suite
asserts this equality row-for-row.

Filter semantics follow the engine's three-valued logic: a cached row is
kept only when every delta predicate is exactly ``True`` — a NULL row
value fails membership and interval checks just as it fails the fresh
execution's WHERE.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Hashable, Iterable, Optional

from repro.errors import ExecutionError
from repro.sql import ast
from repro.sql.fingerprint import canonical_statement
from repro.sql.printer import expression_to_sql, to_sql

#: Candidate summaries kept per shape key in :class:`SubsumptionIndex`.
#: Candidates are references into the result cache (a few hundred bytes
#: each) and a probe's containment check is a dict walk, so the cap
#: bounds probe latency, not memory: it must comfortably exceed the
#: number of concurrently-live broad templates per shape (e.g. one per
#: dashboard panel in a sliding-window workload).
DEFAULT_CANDIDATES_PER_SHAPE = 32


# --------------------------------------------------------------------------- #
# intervals
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Interval:
    """A one-dimensional range constraint over literal bounds.

    ``None`` for an endpoint means unbounded on that side (it is *not* a
    NULL constant — NULL-bounded conjuncts never build an Interval; see
    the module doc's NULL rule).
    """

    low: Any = None
    low_inclusive: bool = True
    high: Any = None
    high_inclusive: bool = True

    def admits(self, value: Any) -> bool:
        """Three-valued membership collapsed for filter position: NULL
        row values are excluded, exactly as the engine's WHERE does."""
        if value is None:
            return False
        if self.low is not None:
            if value < self.low:
                return False
            if value == self.low and not self.low_inclusive:
                return False
        if self.high is not None:
            if value > self.high:
                return False
            if value == self.high and not self.high_inclusive:
                return False
        return True

    def contains(self, other: "Interval") -> bool:
        """Region containment: every point admitted by ``other`` is
        admitted by ``self``. Raises ``TypeError`` on incomparable
        bounds (the caller refuses)."""
        if self.low is not None:
            if other.low is None:
                return False
            if other.low < self.low:
                return False
            if (
                other.low == self.low
                and other.low_inclusive
                and not self.low_inclusive
            ):
                return False
        if self.high is not None:
            if other.high is None:
                return False
            if other.high > self.high:
                return False
            if (
                other.high == self.high
                and other.high_inclusive
                and not self.high_inclusive
            ):
                return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        """The conjunction of two range conjuncts on one attribute."""
        low, low_inc = self.low, self.low_inclusive
        if other.low is not None and (
            low is None
            or other.low > low
            or (other.low == low and not other.low_inclusive)
        ):
            low, low_inc = other.low, other.low_inclusive
        high, high_inc = self.high, self.high_inclusive
        if other.high is not None and (
            high is None
            or other.high < high
            or (other.high == high and not other.high_inclusive)
        ):
            high, high_inc = other.high, other.high_inclusive
        return Interval(low, low_inc, high, high_inc)

    def describe(self) -> str:
        left = "(-inf" if self.low is None else (
            ("[" if self.low_inclusive else "(") + repr(self.low)
        )
        right = "+inf)" if self.high is None else (
            repr(self.high) + ("]" if self.high_inclusive else ")")
        )
        return f"{left}, {right}"


@dataclass(frozen=True)
class AttrConstraint:
    """The conjunction of the point/IN and range conjuncts on one
    attribute, plus the output-column label delta filters need.

    ``values`` is the intersection of the attribute's ``=``/``IN``
    literal sets (``None`` when no such conjunct exists); ``interval``
    the intersection of its range conjuncts. ``label`` is the cached
    answer's output column carrying the attribute (``None`` when it is
    not visible — such a constraint can be *matched* but never applied
    as a delta filter).
    """

    values: Optional[frozenset] = None
    interval: Optional[Interval] = None
    label: Optional[str] = None

    def admits(self, value: Any) -> bool:
        if value is None:
            return False
        if self.values is not None and value not in self.values:
            return False
        if self.interval is not None and not self.interval.admits(value):
            return False
        return True

    def same_region(self, other: "AttrConstraint") -> bool:
        return self.values == other.values and self.interval == other.interval


# --------------------------------------------------------------------------- #
# summaries
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ResidualConjunct:
    """One residual WHERE conjunct: canonical text + the expression with
    its column references rewritten to output labels (``None`` when some
    reference is not visible in the output — the conjunct can then be
    matched by text but never applied as a delta filter)."""

    text: str
    labeled: Optional[ast.Expression]


@dataclass(frozen=True)
class QuerySummary:
    """The predicate lattice entry for one SELECT block.

    ``reusable`` is False when the statement's shape or constants make
    post-filtering unsound; ``refusal`` names the rule that fired.
    """

    shape_key: str
    constraints: "OrderedDictType"
    residuals: tuple[ResidualConjunct, ...]
    reusable: bool
    refusal: Optional[str] = None

    def residual_texts(self) -> frozenset[str]:
        return frozenset(r.text for r in self.residuals)


# typing alias kept simple: attr text -> AttrConstraint, insertion ordered
OrderedDictType = "OrderedDict[str, AttrConstraint]"


def _refused(shape_key: str, reason: str) -> QuerySummary:
    return QuerySummary(
        shape_key=shape_key,
        constraints=OrderedDict(),
        residuals=(),
        reusable=False,
        refusal=reason,
    )


def shape_key_of(statement: ast.SelectStatement) -> str:
    """Hash of the canonical statement with its WHERE clause erased.

    Two queries share a shape key exactly when they differ only in their
    WHERE clause — same FROM, select list, ORDER BY and decoration — so
    every sliding-window variant of a template (prepared or spelled as
    raw SQL) probes one candidate bucket.
    """
    stripped = replace(statement, where=None)
    digest = hashlib.sha256(to_sql(stripped).encode("utf-8")).hexdigest()
    return f"shape:{digest}"


def _occurrence_count(statement: ast.SelectStatement) -> int:
    count = 0

    def visit(item: ast.FromItem) -> None:
        nonlocal count
        if isinstance(item, ast.TableRef):
            count += 1
        else:
            visit(item.left)
            visit(item.right)

    for item in statement.from_items:
        visit(item)
    return count


def _output_label(
    statement: ast.SelectStatement,
    ref: ast.ColumnRef,
    occurrences: int,
) -> Optional[str]:
    """The cached answer's output column carrying ``ref``, or ``None``.

    Conservative on purpose: with more than one FROM occurrence an
    unqualified reference is refused outright (the fresh path would
    raise AmbiguousColumnError for a genuinely ambiguous name, and a
    subsumed answer must never out-run that error), and a reference is
    accepted only via an exact select-item column match or a star item
    covering its table. Ambiguity across the *actual* column list is
    re-checked at refilter time against the cached entry's columns.
    """
    if ref.table is None and occurrences > 1:
        return None
    labels: set[str] = set()
    star_match = False
    for item in statement.items:
        expr = item.expression
        if isinstance(expr, ast.Star):
            if (
                expr.table is None
                or ref.table is None
                or expr.table == ref.table
            ):
                star_match = True
            continue
        if isinstance(expr, ast.ColumnRef) and expr.name == ref.name:
            if (
                ref.table is not None
                and expr.table is not None
                and expr.table != ref.table
            ):
                continue
            labels.add(item.alias or expr.name)
    if len(labels) == 1:
        return next(iter(labels))
    if not labels and star_match:
        return ref.name
    return None


def _label_residual(
    statement: ast.SelectStatement,
    expr: ast.Expression,
    occurrences: int,
) -> Optional[ast.Expression]:
    """Rewrite every ColumnRef in ``expr`` to its bare output label, so
    the conjunct compiles against a ``{label: index}`` row layout.
    Returns ``None`` when any reference is not visible in the output."""
    if isinstance(expr, ast.ColumnRef):
        label = _output_label(statement, expr, occurrences)
        if label is None:
            return None
        return ast.ColumnRef(label)
    if isinstance(expr, (ast.Literal, ast.Star)):
        return expr
    if isinstance(expr, ast.BinaryOp):
        left = _label_residual(statement, expr.left, occurrences)
        right = _label_residual(statement, expr.right, occurrences)
        if left is None or right is None:
            return None
        return ast.BinaryOp(expr.op, left, right)
    if isinstance(expr, ast.UnaryOp):
        operand = _label_residual(statement, expr.operand, occurrences)
        return None if operand is None else ast.UnaryOp(expr.op, operand)
    if isinstance(expr, ast.InList):
        operand = _label_residual(statement, expr.operand, occurrences)
        if operand is None:
            return None
        items = []
        for item in expr.items:
            labeled = _label_residual(statement, item, occurrences)
            if labeled is None:
                return None
            items.append(labeled)
        return ast.InList(operand, tuple(items), expr.negated)
    if isinstance(expr, ast.Between):
        parts = [
            _label_residual(statement, part, occurrences)
            for part in (expr.operand, expr.low, expr.high)
        ]
        if any(part is None for part in parts):
            return None
        return ast.Between(parts[0], parts[1], parts[2], expr.negated)
    if isinstance(expr, ast.Like):
        operand = _label_residual(statement, expr.operand, occurrences)
        pattern = _label_residual(statement, expr.pattern, occurrences)
        if operand is None or pattern is None:
            return None
        return ast.Like(operand, pattern, expr.negated)
    if isinstance(expr, ast.IsNull):
        operand = _label_residual(statement, expr.operand, occurrences)
        return None if operand is None else ast.IsNull(operand, expr.negated)
    return None  # FunctionCall & anything newer: refuse (aggregates etc.)


_RANGE_OPS = {"<": False, "<=": True, ">": False, ">=": True}


def summarize_statement(statement: ast.Statement) -> QuerySummary:
    """Extract the :class:`QuerySummary` for one statement.

    Always returns a summary carrying the shape key; ``reusable`` is
    False (with ``refusal`` set) for shapes where post-filtering a
    superset answer is unsound.
    """
    if isinstance(statement, ast.SetOperation):
        return _refused("shape:set-operation", "set-operation")
    statement = canonical_statement(statement)
    shape_key = shape_key_of(statement)
    if statement.distinct:
        return _refused(shape_key, "distinct")
    if statement.group_by or statement.having is not None:
        return _refused(shape_key, "group-by")
    if any(
        not isinstance(item.expression, ast.Star)
        and ast.contains_aggregate(item.expression)
        for item in statement.items
    ):
        return _refused(shape_key, "aggregate")
    if statement.limit is not None or statement.offset is not None:
        return _refused(shape_key, "limit-offset")

    occurrences = _occurrence_count(statement)
    constraints: OrderedDict[str, AttrConstraint] = OrderedDict()
    residuals: list[ResidualConjunct] = []

    def merge(attr_key: str, label: Optional[str], *,
              values: Optional[frozenset] = None,
              interval: Optional[Interval] = None) -> Optional[str]:
        existing = constraints.get(
            attr_key, AttrConstraint(label=label)
        )
        merged_values = existing.values
        if values is not None:
            merged_values = (
                values if merged_values is None else merged_values & values
            )
        merged_interval = existing.interval
        if interval is not None:
            try:
                merged_interval = (
                    interval
                    if merged_interval is None
                    else merged_interval.intersect(interval)
                )
            except TypeError:
                return "incomparable-bounds"
        constraints[attr_key] = AttrConstraint(
            values=merged_values,
            interval=merged_interval,
            label=existing.label if existing.label is not None else label,
        )
        return None

    for conjunct in ast.conjuncts(statement.where):
        classified = _classify_conjunct(conjunct)
        if classified == "null-constant":
            return _refused(shape_key, "null-constant")
        if classified is None:
            text = expression_to_sql(conjunct)
            residuals.append(
                ResidualConjunct(
                    text=text,
                    labeled=_label_residual(statement, conjunct, occurrences),
                )
            )
            continue
        ref, values, interval = classified
        label = _output_label(statement, ref, occurrences)
        error = merge(
            str(ref), label, values=values, interval=interval
        )
        if error is not None:
            return _refused(shape_key, error)

    return QuerySummary(
        shape_key=shape_key,
        constraints=constraints,
        residuals=tuple(residuals),
        reusable=True,
    )


def _classify_conjunct(conjunct: ast.Expression):
    """One WHERE conjunct into the lattice's vocabulary.

    Returns ``(ref, values, interval)`` for a point/IN/range conjunct
    over a column and literals, the string ``"null-constant"`` when a
    NULL constant poisons such a slot (satellite-2 rule: never judged
    subset/superset in either direction), or ``None`` for a residual.
    """
    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in ast.COMPARISONS:
        left, right = conjunct.left, conjunct.right
        op = conjunct.op
        if isinstance(left, ast.Literal) and isinstance(right, ast.ColumnRef):
            # flip so the column is on the left: 5 > x  ==  x < 5
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
            left, right = right, left
            op = flipped.get(op, op)
        if isinstance(left, ast.ColumnRef) and isinstance(right, ast.Literal):
            value = right.value
            # beaslint: ok(null-guard) - op is a parser operator token ("=", "<", ...), never a row value
            if op == "=":
                if value is None:
                    return "null-constant"
                return left, frozenset([value]), None
            if op in _RANGE_OPS:
                if value is None:
                    return "null-constant"
                inclusive = _RANGE_OPS[op]
                if op in ("<", "<="):
                    return left, None, Interval(
                        high=value, high_inclusive=inclusive
                    )
                return left, None, Interval(
                    low=value, low_inclusive=inclusive
                )
        return None
    if isinstance(conjunct, ast.InList) and not conjunct.negated:
        if isinstance(conjunct.operand, ast.ColumnRef) and all(
            isinstance(item, ast.Literal) for item in conjunct.items
        ):
            values = [item.value for item in conjunct.items]
            if any(v is None for v in values):
                return "null-constant"
            return conjunct.operand, frozenset(values), None
    return None


# --------------------------------------------------------------------------- #
# containment
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RefilterPlan:
    """The delta between a cached superset and a tighter query: per-row
    checks to replay over the cached rows (order-preserving)."""

    constraint_filters: tuple[tuple[str, AttrConstraint], ...]
    residual_filters: tuple[ast.Expression, ...]

    @property
    def is_identity(self) -> bool:
        return not self.constraint_filters and not self.residual_filters


def subsumes(
    cached: QuerySummary, new: QuerySummary
) -> Optional[RefilterPlan]:
    """Decide whether ``cached``'s predicate region contains ``new``'s.

    Returns the :class:`RefilterPlan` reproducing ``new``'s answer from
    the cached rows, or ``None`` (refusal). Only summaries with equal
    shape keys are comparable; callers index candidates by shape key.
    """
    if not cached.reusable or not new.reusable:
        return None
    if cached.shape_key != new.shape_key:
        return None

    # residual conjuncts: the cached set must be a subset of the new set
    # (every predicate the cached answer already applied is also required
    # by the new query); the extras are delta filters
    cached_texts = cached.residual_texts()
    new_texts = new.residual_texts()
    if not cached_texts <= new_texts:
        return None
    residual_filters: list[ast.Expression] = []
    for residual in new.residuals:
        if residual.text in cached_texts:
            continue
        if residual.labeled is None:
            return None  # delta conjunct not evaluable over the output
        residual_filters.append(residual.labeled)

    constraint_filters: list[tuple[str, AttrConstraint]] = []
    try:
        for attr_key, cached_constraint in cached.constraints.items():
            if _constraint_poisoned(cached_constraint):
                return None
            new_constraint = new.constraints.get(attr_key)
            if new_constraint is None:
                # the new query is *weaker* on this attribute: its region
                # is unbounded there, so the cached rows cannot cover it
                return None
        for attr_key, new_constraint in new.constraints.items():
            if _constraint_poisoned(new_constraint):
                return None
            cached_constraint = cached.constraints.get(attr_key)
            if cached_constraint is None:
                # unconstrained in the cached query: pure delta
                if new_constraint.label is None:
                    return None
                constraint_filters.append((new_constraint.label, new_constraint))
                continue
            if not _region_contains(cached_constraint, new_constraint):
                return None
            if new_constraint.same_region(cached_constraint):
                continue  # identical predicate: nothing to replay
            if new_constraint.label is None:
                return None
            constraint_filters.append((new_constraint.label, new_constraint))
    except TypeError:
        return None  # incomparable constants: refuse, never guess

    return RefilterPlan(
        constraint_filters=tuple(constraint_filters),
        residual_filters=tuple(residual_filters),
    )


def _constraint_poisoned(constraint: AttrConstraint) -> bool:
    """Defensive satellite-2 guard at comparator level (extraction
    already refuses NULL constants, but summaries can be constructed
    directly — e.g. by tests or future callers)."""
    # an Interval endpoint of None means "unbounded", never NULL — NULL
    # bounds are refused before an Interval is ever built — so only the
    # value sets can smuggle a NULL through direct construction.
    return constraint.values is not None and any(
        value is None for value in constraint.values
    )


def _region_contains(cached: AttrConstraint, new: AttrConstraint) -> bool:
    """Is every value admitted by ``new`` admitted by ``cached``?

    May raise ``TypeError`` on incomparable constants (caller refuses).
    """
    if new.values is not None:
        # finite candidate set: check each value that new actually admits
        return all(
            cached.admits(value)
            for value in new.values
            if new.interval is None or new.interval.admits(value)
        )
    # new is interval-only (an infinite region)
    if cached.values is not None:
        return False  # a finite set never covers an interval region
    if cached.interval is None:
        return True  # cached unconstrained (structurally unreachable)
    if new.interval is None:
        return False
    return cached.interval.contains(new.interval)


# --------------------------------------------------------------------------- #
# refiltering
# --------------------------------------------------------------------------- #
def apply_refilter(
    plan: RefilterPlan,
    columns: Iterable[str],
    rows: Iterable[tuple],
) -> Optional[list[tuple]]:
    """Replay ``plan`` over cached rows, preserving their order.

    Returns ``None`` when a delta label is missing from — or duplicated
    in — the cached column list (refusal; the caller falls through to a
    fresh execution). Residual conjuncts are compiled through the
    engine's expression compiler, so their NULL semantics are the
    engine's own.
    """
    column_list = list(columns)
    layout: dict[object, int] = {}
    duplicates: set[str] = set()
    for index, name in enumerate(column_list):
        if name in layout:
            duplicates.add(name)
        else:
            layout[name] = index

    checks: list = []
    for label, constraint in plan.constraint_filters:
        if label in duplicates or label not in layout:
            return None
        index = layout[label]
        if constraint.values is not None and constraint.interval is None:
            # sound without a None guard: poisoned value sets (ones
            # containing None) are refused before a plan is built, so
            # a NULL row value simply fails the membership test
            checks.append(
                lambda row, i=index, s=constraint.values: row[i] in s
            )
        elif constraint.interval is not None and constraint.values is None:
            checks.append(_compile_interval_check(index, constraint.interval))
        else:
            checks.append(
                lambda row, i=index, c=constraint: c.admits(row[i])
            )
    if plan.residual_filters:
        from repro.engine.expressions import compile_expression

        for expr in plan.residual_filters:
            for ref in ast.column_refs(expr):
                if ref.name in duplicates or ref.name not in layout:
                    return None
            try:
                evaluator = compile_expression(expr, layout)
            except ExecutionError:
                return None  # outside the compilable fragment: refuse
            checks.append(
                lambda row, e=evaluator: e(row) is True
            )

    if not checks:
        return list(rows)
    out: list[tuple] = []
    try:
        if len(checks) == 1:
            check = checks[0]
            for row in rows:
                if check(row):
                    out.append(row)
        else:
            for row in rows:
                for check in checks:
                    if not check(row):
                        break
                else:
                    out.append(row)
    except TypeError:
        return None  # incomparable row value vs constant: refuse
    return out


def _compile_interval_check(index: int, interval: Interval):
    """A direct-comparison closure for the hot refilter loop (one
    attribute lookup + chained comparison per row; a NULL row value is
    excluded, matching the 3VL outcome of the fresh WHERE)."""
    low, high = interval.low, interval.high
    if low is None and high is None:  # structurally unreachable
        return lambda row: row[index] is not None
    if high is None:
        if interval.low_inclusive:
            return lambda row: (v := row[index]) is not None and v >= low
        return lambda row: (v := row[index]) is not None and v > low
    if low is None:
        if interval.high_inclusive:
            return lambda row: (v := row[index]) is not None and v <= high
        return lambda row: (v := row[index]) is not None and v < high
    if interval.low_inclusive and interval.high_inclusive:
        return lambda row: (v := row[index]) is not None and low <= v <= high
    if interval.low_inclusive:
        return lambda row: (v := row[index]) is not None and low <= v < high
    if interval.high_inclusive:
        return lambda row: (v := row[index]) is not None and low < v <= high
    return lambda row: (v := row[index]) is not None and low < v < high


# --------------------------------------------------------------------------- #
# the candidate index
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Candidate:
    """One cached bounded answer eligible as a subsumption source."""

    shape_key: str
    result_key: Hashable
    generation: int  # access-schema generation the entry was cached under
    summary: QuerySummary
    template_fingerprint: Optional[str] = None  # set for rebound templates


class SubsumptionIndex:
    """shape key -> recent :class:`Candidate` entries, MRU first.

    A leaf-locked bookkeeping structure (its mutex is never held while
    acquiring any shard or schema lock). It holds *references* to result
    cache entries, not the entries themselves: a candidate whose entry
    was evicted or invalidated is pruned lazily by the prober, and the
    whole index is cleared on a schema-generation bump.
    """

    def __init__(self, max_per_shape: int = DEFAULT_CANDIDATES_PER_SHAPE):
        if max_per_shape < 1:
            raise ValueError("max_per_shape must be >= 1")
        self._max_per_shape = max_per_shape
        self._lock = threading.Lock()
        self._by_shape: dict[str, OrderedDict[Hashable, Candidate]] = {}

    def add(self, candidate: Candidate) -> None:
        with self._lock:
            bucket = self._by_shape.setdefault(
                candidate.shape_key, OrderedDict()
            )
            bucket.pop(candidate.result_key, None)
            bucket[candidate.result_key] = candidate
            while len(bucket) > self._max_per_shape:
                bucket.popitem(last=False)

    def candidates(self, shape_key: str) -> list[Candidate]:
        """A snapshot of the bucket, most recently added first."""
        with self._lock:
            bucket = self._by_shape.get(shape_key)
            if not bucket:
                return []
            return list(reversed(bucket.values()))

    def touch(self, shape_key: str, result_key: Hashable) -> None:
        """Refresh a candidate's recency (it just served a hit), so the
        per-shape LRU keeps proven-broad sources over stale ones."""
        with self._lock:
            bucket = self._by_shape.get(shape_key)
            if bucket is not None and result_key in bucket:
                bucket.move_to_end(result_key)

    def discard(self, shape_key: str, result_key: Hashable) -> bool:
        with self._lock:
            bucket = self._by_shape.get(shape_key)
            if bucket is None:
                return False
            removed = bucket.pop(result_key, None) is not None
            if not bucket:
                self._by_shape.pop(shape_key, None)
            return removed

    def drop_template(self, template_fingerprint: str) -> int:
        """Drop every candidate derived from one rebind template (the
        stale-provenance hook: a merged-arity fallback abandons the
        pinned plan, so answers indexed under it stop being offered)."""
        dropped = 0
        with self._lock:
            for shape_key in list(self._by_shape):
                bucket = self._by_shape[shape_key]
                stale = [
                    key
                    for key, cand in bucket.items()
                    if cand.template_fingerprint == template_fingerprint
                ]
                for key in stale:
                    del bucket[key]
                dropped += len(stale)
                if not bucket:
                    del self._by_shape[shape_key]
        return dropped

    def clear(self) -> int:
        with self._lock:
            count = sum(len(b) for b in self._by_shape.values())
            self._by_shape.clear()
        return count

    def __len__(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._by_shape.values())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        with self._lock:
            shapes = len(self._by_shape)
            count = sum(len(b) for b in self._by_shape.values())
        return f"SubsumptionIndex({count} candidates across {shapes} shapes)"
