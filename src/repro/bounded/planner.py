"""BE Plan Generator: search for a bounded query plan.

Given a canonical SPJA query and an access schema, the generator looks for
an ordering of ``fetch`` operations such that

* every fetch's X-attributes are *available* — bound to query constants or
  to columns already materialised in the running intermediate (propagated
  through the query's equality classes), and
* every relation occurrence is *soundly covered*: either one constraint's
  ``X ∪ Y`` contains all attributes the query needs from it, or a chain of
  fetches anchored on a candidate key extends the occurrence (key-chaining:
  sound because a key-covering fetch returns partial tuples in bijection
  with rows, :meth:`~repro.access.constraint.AccessConstraint.covers_key_of`).

The search is a depth-first walk over fetch choices ordered greedily by
deduced access bound (smallest first), with memoisation on the materialised
attribute set. Following the Feasibility Theorem this is a sound PTIME
under-approximation of (undecidable) bounded evaluability: a returned plan
is always correct; a failure reports why each occurrence resisted coverage.

A plan checks what its fetches do not guarantee, and only that. A
fetch returns only tuples whose X-value is a key it was presented, so an
X column keyed by its class's constants needs no selection, and one
keyed by a materialised column needs no equality. Every other column a
fetch brings in is equated to its class's earlier member, or, the first
time a class is materialised, to the fetch's representative of it (a
constant-keyed member if any, else the first new one); a class with
constants whose representative no key part carries gets one selection,
on the representative (``docs/invariants.md``, "What a bounded plan
checks").

Bound deduction follows Example 2's arithmetic: a fetch presented with at
most ``k`` keys under constraint bound ``N`` accesses at most ``k·N``
partial tuples and grows the intermediate to at most ``k·N`` rows. The
``tight_*`` bounds additionally exploit per-equivalence-class distinctness
(ablation A3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.access.constraint import AccessConstraint
from repro.access.schema import AccessSchema
from repro.catalog.schema import DatabaseSchema, TableSchema
from repro.errors import NotCoveredError
from repro.sql.normalize import Attribute, ConjunctiveQuery
from repro.bounded.plan import BoundedPlan, FetchOp, KeyPart, PlanOp, SelectOp


class _UnionFind:
    """Union-find over attributes (the query's equality classes)."""

    def __init__(self) -> None:
        self._parent: dict[Attribute, Attribute] = {}

    def add(self, item: Attribute) -> None:
        self._parent.setdefault(item, item)

    def find(self, item: Attribute) -> Attribute:
        self.add(item)
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:  # path compression
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Attribute, b: Attribute) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra

    def members(self) -> dict[Attribute, list[Attribute]]:
        groups: dict[Attribute, list[Attribute]] = {}
        for item in self._parent:
            groups.setdefault(self.find(item), []).append(item)
        return groups


# --------------------------------------------------------------------------- #
# equivalence-class constant propagation (shared with plan rebinding)
# --------------------------------------------------------------------------- #
def equality_classes(cq: ConjunctiveQuery) -> _UnionFind:
    """The query's equality classes over every attribute it touches.

    The partition is a property of the query *shape* — occurrences,
    equi-join atoms, and which attributes appear where — never of the
    constants, which is what makes constraint-preserving plan reuse
    across bindings sound (:mod:`repro.bounded.rebind`).
    """
    uf = _UnionFind()
    for binding in cq.occurrences:
        for column in cq.attributes_of(binding):
            uf.add(Attribute(binding, column))
    for left, right in cq.equalities:
        uf.union(left, right)
    return uf


def class_constant_map(
    cq: ConjunctiveQuery, uf: _UnionFind
) -> dict[Attribute, tuple]:
    """Constants per equality class: intersect the selection values of
    the class members, in ``cq.selections`` iteration order (what a
    rebind re-derives per class, ``rebind._ClassSlot.merged``). A
    class's tuple may be the very object a selection holds (and so may
    be shared between classes): the plan's skeleton numbers constant
    classes by class root, never by tuple identity.
    """
    constants: dict[Attribute, tuple] = {}
    for attr, values in cq.selections.items():
        root = uf.find(attr)
        if root in constants:
            existing = set(constants[root])
            merged = tuple(v for v in values if v in existing)
        else:
            merged = tuple(values)
        constants[root] = merged
    return constants


@dataclass
class _SearchState:
    """Mutable search state; copied when branching."""

    materialized: set[Attribute] = field(default_factory=set)
    fetched: set[str] = field(default_factory=set)  # bindings with >= 1 fetch
    anchored: set[str] = field(default_factory=set)  # key-covered bindings
    covered: set[str] = field(default_factory=set)
    ops: list[PlanOp] = field(default_factory=list)
    size_bound: int = 1
    tight_size: int = 1
    class_bound: dict[Attribute, int] = field(default_factory=dict)
    applied_selection_classes: set[Attribute] = field(default_factory=set)
    applied_filters: set[int] = field(default_factory=set)
    access_total: int = 0
    tight_access_total: int = 0
    constraints_used: list[AccessConstraint] = field(default_factory=list)

    def copy(self) -> "_SearchState":
        return _SearchState(
            materialized=set(self.materialized),
            fetched=set(self.fetched),
            anchored=set(self.anchored),
            covered=set(self.covered),
            ops=list(self.ops),
            size_bound=self.size_bound,
            tight_size=self.tight_size,
            class_bound=dict(self.class_bound),
            applied_selection_classes=set(self.applied_selection_classes),
            applied_filters=set(self.applied_filters),
            access_total=self.access_total,
            tight_access_total=self.tight_access_total,
            constraints_used=list(self.constraints_used),
        )

    def signature(self) -> tuple:
        return (
            frozenset(self.materialized),
            frozenset(self.covered),
            frozenset(self.anchored),
        )


@dataclass
class _Candidate:
    constraint: AccessConstraint
    binding: str
    key_parts: list[KeyPart]
    const_factor: int  # product of IN-list sizes over distinct const classes
    tight_key_classes: list[int]  # per-class enumeration bounds for X
    full_coverage: bool
    anchors: bool


class BoundedPlanGenerator:
    """Builds bounded plans for conjunctive queries under an access schema."""

    def __init__(self, db_schema: DatabaseSchema, access_schema: AccessSchema):
        self._db_schema = db_schema
        self._access_schema = access_schema

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def generate(
        self, cq: ConjunctiveQuery, *, require_bag_exact: bool = False
    ) -> BoundedPlan:
        plan, reasons = self.try_generate(cq, require_bag_exact=require_bag_exact)
        if plan is None:
            raise NotCoveredError(
                "query is not covered by the access schema", reasons
            )
        return plan

    def try_generate(
        self,
        cq: ConjunctiveQuery,
        *,
        require_bag_exact: bool = False,
        candidate_order: str = "greedy",
    ) -> tuple[Optional[BoundedPlan], list[str]]:
        """Return ``(plan, [])`` on success or ``(None, reasons)``.

        With ``require_bag_exact`` the search only accepts plans in which
        every occurrence is key-covered (needed for duplicate-sensitive
        aggregates); the DFS backtracks past covering-but-unanchored
        choices. Failing after it reached such a choice, it returns
        ``(None, [])``: a plan exists, but none is bag-exact (the search
        without the rule would have stopped there, and it fails only
        after visiting every reachable state, so no second search is
        needed to tell). ``candidate_order`` selects the fetch-ordering heuristic:
        ``"greedy"`` (smallest deduced access bound first, the default) or
        ``"anti_greedy"`` (largest first — the ablation baseline showing
        what fetch-order optimisation buys).
        """
        if candidate_order not in ("greedy", "anti_greedy"):
            raise ValueError(f"unknown candidate order {candidate_order!r}")
        context = _PlanContext(
            cq,
            self._db_schema,
            self._access_schema,
            require_bag_exact=require_bag_exact,
            candidate_order=candidate_order,
        )
        state = context.search(_SearchState())
        if state is None:
            return None, [] if context.covered_unanchored else context.failure_reasons()
        return context.finalize(state), []

    def greedy_prefix(self, cq: ConjunctiveQuery) -> tuple[_SearchState, "_PlanContext"]:
        """Run the greedy loop without backtracking and return the final
        (possibly partial) state — the BE Plan Optimizer consumes this to
        build partially bounded plans."""
        context = _PlanContext(cq, self._db_schema, self._access_schema)
        state = _SearchState()
        while True:
            candidates = context.candidates(state)
            if not candidates:
                return state, context
            candidate = min(
                candidates, key=lambda c: context.access_bound_of(state, c)
            )
            state = context.apply(state, candidate)
            if len(state.covered) == len(cq.occurrences):
                return state, context


class _PlanContext:
    """Per-query immutable context + the DFS itself."""

    def __init__(
        self,
        cq: ConjunctiveQuery,
        db_schema: DatabaseSchema,
        access_schema: AccessSchema,
        *,
        require_bag_exact: bool = False,
        candidate_order: str = "greedy",
    ):
        self.cq = cq
        self.db_schema = db_schema
        self.access_schema = access_schema
        self.require_bag_exact = require_bag_exact
        self.candidate_order = candidate_order
        self.needed: dict[str, set[str]] = {
            binding: cq.attributes_of(binding) for binding in cq.occurrences
        }

        # equality classes over all attributes of the query, and the
        # constants per class (intersection over the class members);
        # shared with the binding-aware rebinder (bounded.rebind)
        self.uf = equality_classes(cq)
        self.class_constants = class_constant_map(cq, self.uf)

        self._visited: set[tuple] = set()
        #: the search reached a state covering every occurrence without
        #: anchoring them all (only ``require_bag_exact`` rejects one)
        self.covered_unanchored = False

    # ------------------------------------------------------------------ #
    def table_schema(self, binding: str) -> TableSchema:
        return self.db_schema.table(self.cq.occurrences[binding])

    def _resolve_x(
        self, state: _SearchState, binding: str, constraint: AccessConstraint
    ) -> Optional[tuple[list[KeyPart], int, list[int]]]:
        """Resolve every X attribute; None when some attribute is unavailable.

        Returns (key_parts, const_factor, per-class tight bounds).
        """
        key_parts: list[KeyPart] = []
        const_factor = 1
        tight_class_bounds: list[int] = []
        seen_classes: set[Attribute] = set()
        for x_name in constraint.x:
            attr = Attribute(binding, x_name)
            root = self.uf.find(attr)
            new_class = root not in seen_classes
            seen_classes.add(root)

            if attr in state.materialized:
                key_parts.append(KeyPart(x_name, "column", column=attr))
                if new_class:
                    tight_class_bounds.append(
                        state.class_bound.get(root, state.tight_size)
                    )
                continue
            member = self._materialized_member(state, root)
            if member is not None:
                key_parts.append(KeyPart(x_name, "column", column=member))
                if new_class:
                    tight_class_bounds.append(
                        state.class_bound.get(root, state.tight_size)
                    )
                continue
            constants = self.class_constants.get(root)
            if constants is not None:
                key_parts.append(KeyPart(x_name, "const", values=constants))
                if new_class:
                    const_factor *= max(len(constants), 0)
                    tight_class_bounds.append(len(constants))
                continue
            return None
        return key_parts, const_factor, tight_class_bounds

    def _materialized_member(
        self, state: _SearchState, root: Attribute
    ) -> Optional[Attribute]:
        best: Optional[Attribute] = None
        for attr in state.materialized:
            if self.uf.find(attr) == root and (best is None or attr < best):
                best = attr
        return best

    # ------------------------------------------------------------------ #
    def candidates(self, state: _SearchState) -> list[_Candidate]:
        out: list[_Candidate] = []
        for binding, table_name in self.cq.occurrences.items():
            if binding in state.covered:
                continue
            schema = self.table_schema(binding)
            needed = self.needed[binding]
            for constraint in self.access_schema.constraints_for(table_name):
                exposes = set(constraint.x) | set(constraint.y)
                full = needed <= exposes
                anchors = schema.has_key_within(exposes)
                if binding not in state.fetched:
                    if not (full or anchors):
                        continue
                else:
                    # chain fetch: must be keyed by a materialised key of R
                    if binding not in state.anchored:
                        continue
                    keyed = any(
                        key <= set(constraint.x)
                        and all(
                            Attribute(binding, k) in state.materialized
                            for k in key
                        )
                        for key in schema.keys
                    )
                    if not keyed:
                        continue
                    # skip fetches that add nothing new
                    new = {
                        Attribute(binding, a)
                        for a in exposes
                        if Attribute(binding, a) not in state.materialized
                    }
                    if not new:
                        continue
                resolved = self._resolve_x(state, binding, constraint)
                if resolved is None:
                    continue
                key_parts, const_factor, tight_classes = resolved
                out.append(
                    _Candidate(
                        constraint=constraint,
                        binding=binding,
                        key_parts=key_parts,
                        const_factor=const_factor,
                        tight_key_classes=tight_classes,
                        full_coverage=full,
                        anchors=anchors,
                    )
                )
        return out

    def access_bound_of(self, state: _SearchState, candidate: _Candidate) -> int:
        return state.size_bound * candidate.const_factor * candidate.constraint.n

    # ------------------------------------------------------------------ #
    def apply(self, state: _SearchState, candidate: _Candidate) -> _SearchState:
        new = state.copy()
        constraint = candidate.constraint
        binding = candidate.binding

        key_bound = state.size_bound * candidate.const_factor
        access_bound = key_bound * constraint.n

        tight_product = 1
        for bound in candidate.tight_key_classes:
            tight_product *= bound
        tight_key = min(state.tight_size * candidate.const_factor, tight_product)
        tight_access = tight_key * constraint.n

        # columns this fetch adds
        new_columns: list[Attribute] = []
        for x_name in constraint.x:
            attr = Attribute(binding, x_name)
            if attr not in new.materialized:
                new_columns.append(attr)
        for y_name in constraint.y:
            attr = Attribute(binding, y_name)
            if attr not in new.materialized:
                new_columns.append(attr)

        fetch = FetchOp(
            constraint=constraint,
            binding=binding,
            key_parts=candidate.key_parts,
            new_columns=new_columns,
            input_bound=state.size_bound,
            key_bound=key_bound,
            access_bound=access_bound,
            output_bound=access_bound,
            tight_key_bound=tight_key,
            tight_access_bound=tight_access,
        )
        new.ops.append(fetch)
        new.constraints_used.append(constraint)
        new.size_bound = fetch.output_bound
        new.tight_size = tight_access
        new.access_total += access_bound
        new.tight_access_total += tight_access

        # what the fetch guarantees: a key part's column holds its key. A
        # column-keyed part equals its source; the constant-keyed parts of
        # one class all hold one value of the class's constants (the
        # executor enumerates them per class, never a NULL)
        keyed = {
            Attribute(binding, part.attribute): part.source
            for part in candidate.key_parts
        }
        # the member each new column must equal: the class's earlier
        # materialised member, else its representative in this fetch (a
        # constant-keyed member if any, else the first new one)
        anchors: dict[Attribute, Attribute] = {}
        for attr in new_columns:
            root = self.uf.find(attr)
            anchor = anchors.get(root)
            if anchor is None:
                anchor = self._materialized_member(state, root)
                if anchor is None:
                    anchor = next(
                        (
                            member
                            for member in new_columns
                            if keyed.get(member) == "const"
                            and self.uf.find(member) == root
                        ),
                        attr,
                    )
                anchors[root] = anchor
            new.materialized.add(attr)
            if attr != anchor and attr not in keyed:
                # enforce the equality explicitly
                new.ops.append(
                    SelectOp(kind="equality", column=attr, other=anchor)
                )
            bound = new.class_bound.get(root)
            grown = new.tight_size
            new.class_bound[root] = min(bound, grown) if bound is not None else grown

        # apply constants on newly materialised classes: a selection on
        # the representative, unless the fetch keyed it by them
        for root, anchor in anchors.items():
            if root in new.applied_selection_classes:
                continue
            constants = self.class_constants.get(root)
            if constants is None:
                continue
            if keyed.get(anchor) != "const":
                new.ops.append(
                    SelectOp(kind="selection", column=anchor, values=constants)
                )
            new.applied_selection_classes.add(root)
            new.class_bound[root] = min(
                new.class_bound.get(root, len(constants)), len(constants)
            )

        # apply residual filters whose attributes are all materialised
        for index, predicate in enumerate(self.cq.filters):
            if index in new.applied_filters:
                continue
            if predicate.attributes <= new.materialized:
                new.ops.append(
                    SelectOp(kind="filter", predicate=predicate.expression)
                )
                new.applied_filters.add(index)

        # coverage bookkeeping
        new.fetched.add(binding)
        if candidate.anchors:
            new.anchored.add(binding)
        materialized_here = {
            attr.column for attr in new.materialized if attr.binding == binding
        }
        if candidate.full_coverage or (
            binding in new.anchored and self.needed[binding] <= materialized_here
        ):
            new.covered.add(binding)
        return new

    # ------------------------------------------------------------------ #
    def _accepts(self, state: _SearchState) -> bool:
        if len(state.covered) != len(self.cq.occurrences):
            return False
        if self.require_bag_exact and not all(
            b in state.anchored for b in self.cq.occurrences
        ):
            self.covered_unanchored = True
            return False
        return True

    def search(self, state: _SearchState) -> Optional[_SearchState]:
        if self._accepts(state):
            return state
        signature = state.signature()
        if signature in self._visited:
            return None
        self._visited.add(signature)
        candidates = self.candidates(state)
        candidates.sort(
            key=lambda c: self.access_bound_of(state, c),
            reverse=self.candidate_order == "anti_greedy",
        )
        for candidate in candidates:
            result = self.search(self.apply(state, candidate))
            if result is not None:
                return result
        return None

    # ------------------------------------------------------------------ #
    def finalize(self, state: _SearchState) -> BoundedPlan:
        bag_exact = all(
            binding in state.anchored for binding in self.cq.occurrences
        )
        return BoundedPlan(
            cq=self.cq,
            ops=state.ops,
            bag_exact=bag_exact,
            access_bound=state.access_total,
            tight_access_bound=state.tight_access_total,
            output_bound=state.size_bound,
            constraints_used=state.constraints_used,
        )

    def _statically_available(self, binding: str, x_name: str) -> bool:
        """Over-approximation: an X attribute could ever become a fetch key
        only if its equality class has constants or a member in another
        occurrence (which some fetch might materialise)."""
        attr = Attribute(binding, x_name)
        root = self.uf.find(attr)
        if self.class_constants.get(root):
            return True
        return any(
            self.uf.find(other) == root and other.binding != binding
            for other in list(self.uf._parent)
        )

    def failure_reasons(self) -> list[str]:
        """Static explanation of why coverage failed, per occurrence."""
        reasons: list[str] = []
        for binding, table_name in self.cq.occurrences.items():
            needed = self.needed[binding]
            constraints = self.access_schema.constraints_for(table_name)
            if not constraints:
                reasons.append(
                    f"occurrence {binding!r} ({table_name}): no access "
                    "constraints on this relation"
                )
                continue
            schema = self.table_schema(binding)
            details = []
            for constraint in constraints:
                exposes = set(constraint.x) | set(constraint.y)
                missing = sorted(needed - exposes)
                if missing and not schema.has_key_within(exposes):
                    details.append(
                        f"{constraint.name} lacks {{{', '.join(missing)}}} "
                        "and does not expose a key"
                    )
                    continue
                unavailable = sorted(
                    x
                    for x in constraint.x
                    if not self._statically_available(binding, x)
                )
                if unavailable:
                    details.append(
                        f"{constraint.name} needs X attributes "
                        f"{{{', '.join(unavailable)}}} that no constant or "
                        "join can supply"
                    )
            if details:
                reasons.append(
                    f"occurrence {binding!r} ({table_name}): "
                    + "; ".join(details)
                )
        if not reasons:
            reasons.append(
                "no fetch ordering makes every constraint's X attributes "
                "available from constants or previously fetched values"
            )
        return reasons
