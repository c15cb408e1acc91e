"""Binding-aware plan rebinding: reuse a pinned bounded plan across
bindings without re-running the BE Checker.

BEAS's contract (§3 of the paper) is that a query is *decided once*
against the access schema and then executed within bounds many times.
The checker's verdict and the deduced bound arithmetic depend on the
query *shape* — which equality classes carry constants and how many
values each class enumerates — never on the constant values themselves:
equivalence under the registered access constraints is preserved by any
substitution that keeps the per-class constant arity (the same
equivalence-under-dependencies reasoning as query equivalence under
dependencies à la Chirkova & Genesereth). So a
:class:`~repro.bounded.coverage.CoverageDecision` pinned for one binding
of a prepared template is **rebound** for another binding of equal
arity by value — a covered one, and a not-covered one with a partially
bounded plan (:class:`~repro.bounded.optimizer.PartialPlan`), whose
bounded prefix and residual are decided by the same shape. One
request's decision is one value, a :class:`Decision`: the pinned
checker outcome, never copied, plus — rebound — the template and one
merged constant tuple per equality class (the tuple the arity guard
derives anyway), in the order the plan's skeleton numbers the classes
(:mod:`repro.bounded.skeleton`), plus the request's stamp. The
executors run the pinned plan's operators and read every fetch key,
selection value and selection label from that vector, so a rebound
request copies no operator, query, plan or checker outcome. Its bounds
are the pinned decision's; ``within_budget`` is derived from them and
the request's budget. A partially bounded decision runs its pinned prefix
off the vector the same way, and its pinned residual
(:class:`~repro.bounded.residual.Residual`, compiled once with the plan)
too: the vector goes on with one merged tuple per constant class the
residual selects on. A slot whose equality class spans prefix and
residual writes both positions.

The patched plan (every ``fetch`` op's ``KeyPart(source="const")``
tuples, every ``selection`` op's values and the canonical query's
per-attribute selections rewritten for the binding, ``==`` to what a
fresh BE Checker run decides) is built only when something reads it —
``Decision.plan`` / ``.coverage`` / ``explain()``, or a remote route
that pickles the plan for a peer — by :meth:`RebindTemplate.coverage`,
and it shares the pinned plan's skeleton slot. The executor presents
the same *number* of keys per fetch in the same canonical order either
way, so ``tuples_fetched`` accounting and bound enforcement are
identical to a freshly decided plan; the rebinding differential suite
(``tests/test_rebinding_differential.py``) locks rebound-vs-fresh
equality down to exact row order and per-fetch-op metrics, in the
spirit of bag-semantics equivalence checking (Zhou et al., PAPERS.md).

:func:`build_rebind_template` precomputes, once per (template, arity
signature), which slots contribute to which equality class and where
that class sits in the constant vector, so a rebind only re-derives the
merged tuples of the classes the binding touches and checks the arity
guard (``benchmarks/bench_rebind.py`` measures it across a binding
stream).

Guards — a rebind is refused (``None``; the caller falls back to a full
BE Checker run) whenever the new binding could change the decision:

* the serving layer keys pinned templates by an **arity signature**
  (slot names, IN-list arities, per-value type classes), so a binding
  that changes a slot's arity, NULL-ness, or type class never reaches a
  mismatched template in the first place;
* the rebinder re-derives the per-equality-class constant tuples
  (class members intersect their values) and refuses when any class's
  *merged* arity differs from the pinned plan's — two slots joined into
  one class can intersect differently even at equal per-slot arity;
* only single-block decisions with a bounded plan rebind: a covered
  :class:`BoundedPlan`, or a partially bounded plan's prefix and
  residual; set operations and not-covered verdicts without a bounded
  prefix are filed per binding and always re-check;
* every override slot must surface as a selection of the decided query
  (and so of the covered plan, of the prefix's CQ or of the
  residual's steps), or the template is not built.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Optional, Union

from repro.access.constraint import AccessConstraint
from repro.bounded.coverage import CoverageDecision
from repro.bounded.plan import (
    AnyBoundedPlan,
    BoundedPlan,
    KeyPart,
    explain_plan,
    patched,
)
from repro.bounded.planner import class_constant_map, equality_classes
from repro.bounded.skeleton import Constants, skeleton_of
from repro.errors import BEASError
from repro.sql.normalize import Attribute

if TYPE_CHECKING:  # pragma: no cover
    from repro.beas.session import Query, Result
    from repro.bounded.optimizer import PartialPlan
    from repro.config import ExecutionOptions


class _ClassSlot:
    """One equality class of the decided query that carries constants:
    who contributes to its merged constant tuple, the arity the decision
    was pinned at, where the bounded plan (or a partially bounded plan's
    prefix and residual) reads it in the constant vector (no position:
    nothing reads it), and, for a partially bounded plan, the prefix
    selections it fills."""

    __slots__ = ("contributors", "arity", "positions", "prefix")

    def __init__(self, arity: int) -> None:
        #: (slot name, the template's own values), in ``cq.selections``
        #: order — the order the merge intersects in
        self.contributors: list[tuple[str, tuple]] = []
        self.arity = arity
        self.positions: list[int] = []
        #: the prefix CQ's selections holding the class's merged tuple
        self.prefix: list[Attribute] = []

    def merged(self, overrides: Mapping[str, tuple]) -> tuple:
        """The class's constants under ``overrides``: its members'
        values intersected, exactly as ``class_constant_map`` does."""
        merged: Optional[tuple] = None
        for name, template_values in self.contributors:
            values = overrides.get(name, template_values)
            if merged is None:
                merged = values
            else:
                existing = set(merged)
                merged = tuple(v for v in values if v in existing)
        assert merged is not None
        return merged


class RebindTemplate:
    """One pinned decision plus what rebinding it needs.

    Built once per (template fingerprint, arity signature) by
    :func:`build_rebind_template`; every equal-signature binding then
    pays only :meth:`rebind` — no parse, no normalize, no plan search,
    no copy, and no work on equality classes the binding leaves
    untouched. ``plan`` is the bounded plan that runs off the constant
    vector: the covered plan, or a partially bounded plan's prefix
    (``partial`` is then the pinned :class:`PartialPlan`). Its skeleton
    is compiled here, so the template's first execution and every
    rebound one run off it.
    """

    __slots__ = (
        "decision", "partial", "plan", "skeleton", "constants",
        "_class_of_slot", "_attributes",
    )  # fmt: skip

    def __init__(self, decision: CoverageDecision):
        self.decision = decision
        partial = self.partial = decision.partial
        plan = decision.plan if partial is None else partial.sub_plan
        assert isinstance(plan, BoundedPlan)
        self.plan: BoundedPlan = plan
        skeleton = self.skeleton = skeleton_of(plan)
        #: the pinned binding's own constant vector (a partially bounded
        #: plan's: its prefix's, then its residual's)
        self.constants: Constants = skeleton.constants(plan)
        # the decided query, over whose classes the slots merge
        cq = plan.cq if partial is None else partial.cq
        classes = equality_classes(cq)
        pinned = class_constant_map(cq, classes)

        by_root: dict[Attribute, _ClassSlot] = {}
        self._class_of_slot: dict[str, _ClassSlot] = {}
        #: slot name -> the decided query's selection attribute
        self._attributes: dict[str, Attribute] = {}
        for attr, values in cq.selections.items():
            root = classes.find(attr)
            slot = by_root.get(root)
            if slot is None:
                slot = by_root[root] = _ClassSlot(len(pinned[root]))
            name = str(attr)
            slot.contributors.append((name, values))
            self._class_of_slot[name] = slot
            self._attributes[name] = attr
        # the plan's selections are members of the decided query's
        # constant classes (a prefix's: its covered members, each holding
        # its class's merged tuple); where it reads each class follows
        for attr in plan.cq.selections:
            slot = by_root[classes.find(attr)]
            position = skeleton.positions.get(skeleton.classes.find(attr))
            if position is not None and position not in slot.positions:
                slot.positions.append(position)
            if partial is not None:
                slot.prefix.append(attr)
        if partial is not None:
            residual = partial.residual
            self.constants += residual.constants(cq)
            for position, root in enumerate(residual.roots, residual.offset):
                by_root[classes.find(root)].positions.append(position)

    # ------------------------------------------------------------------ #
    def rebind(
        self,
        overrides: Mapping[str, tuple],
        *,
        generation: int = 0,
        query: Optional["Query"] = None,
        budget: Optional[int] = None,
    ) -> Optional["Decision"]:
        """The pinned decision rebound to ``overrides`` and stamped with
        ``generation`` / ``query`` / ``budget``, or ``None`` when a guard
        demands a full re-check.

        ``overrides`` maps resolved slot names to canonical value tuples
        (``repro.serving.params.resolve_overrides`` output). Slots not
        overridden keep the template's own constants.
        """
        constants = list(self.constants)
        done: list[_ClassSlot] = []
        for name in overrides:
            slot = self._class_of_slot.get(name)
            if slot is None:
                return None  # unknown slot: shape mismatch, re-check
            if slot in done:
                continue
            done.append(slot)
            merged = slot.merged(overrides)
            if len(merged) != slot.arity:
                return None  # merged arity changed: bounds would move
            for position in slot.positions:
                constants[position] = merged
        return Decision(
            self.decision, "rebound", generation, query, budget,
            template=self, constants=tuple(constants), overrides=overrides,
        )  # fmt: skip

    def coverage(self, rebound: "Decision") -> CoverageDecision:
        """The pinned decision with one binding's constants written into
        a copy of its plan: what a fresh BE Checker (and, not covered, BE
        Plan Optimizer) run of the bound query decides (``==``,
        ``repr``-equal). Untouched operators are shared, every deduced
        bound is kept, and the copy keeps the pinned plan's skeleton
        slot. Only a reader of the plan pays for it
        (:attr:`Decision.coverage`)."""
        overrides, constants = rebound.overrides, rebound.constants
        assert overrides is not None and constants is not None
        plan = self.plan
        pinned_ops = plan.ops
        ops = list(pinned_ops)
        for position, sites in enumerate(self.skeleton.sites):
            merged = constants[position]
            if merged is self.constants[position]:
                continue
            for index, part in sites:
                op = ops[index]
                if part is None:
                    ops[index] = patched(op, values=merged)
                    continue
                if op is pinned_ops[index]:
                    op = ops[index] = patched(op, key_parts=list(op.key_parts))
                op.key_parts[part] = KeyPart(
                    op.key_parts[part].attribute, "const", None, merged
                )
        partial = self.partial
        decided = plan.cq if partial is None else partial.cq
        selections = dict(decided.selections)
        for name, values in overrides.items():
            selections[self._attributes[name]] = values
        cq = patched(decided, selections=selections)
        if partial is None:
            return patched(
                self.decision,
                plan=patched(plan, ops=ops, cq=cq),
                within_budget=rebound.within_budget,
            )
        prefix_selections = dict(plan.cq.selections)
        for name in overrides:
            slot = self._class_of_slot[name]
            merged = slot.merged(overrides)
            for attr in slot.prefix:
                prefix_selections[attr] = merged
        prefix = patched(
            plan, ops=ops, cq=patched(plan.cq, selections=prefix_selections)
        )
        return patched(
            self.decision,
            partial=patched(partial, sub_plan=prefix, cq=cq),
            within_budget=rebound.within_budget,
        )


class Decision:
    """One request's decision: the BE Checker's pinned outcome, this
    binding's constants when it is rebound, and the request's stamp.

    ``pinned`` is the checker's :class:`CoverageDecision` (never copied);
    the verdict and every deduced bound are read from it. A rebound
    decision also holds its :class:`RebindTemplate`, its constant
    vector (one merged tuple per constant class, in skeleton order) and
    its resolved ``overrides``; any other runs off its plan's own
    constants (``constants is None``). The stamp says how it was
    obtained (``provenance``: ``"fresh"`` — a full checker run;
    ``"cached"`` — an exact per-binding decision-cache hit;
    ``"rebound"`` — the signature's pinned decision rebound by value;
    ``"result-cache"`` — the rows came from the result cache), under
    which access-schema ``generation``, through which ``query`` handle
    and against which tuple ``budget`` (None: none). ``within_budget``
    is derived from ``budget`` and the pinned ``access_bound``.

    Built once per request by the ``decide`` stage and immutable from
    then on: result-cache hits share one. The patched
    :attr:`coverage` / :attr:`plan` are built on first read only (a
    concurrent duplicate build is benign: both are the same value).
    """

    __slots__ = (
        "pinned", "provenance", "generation", "query", "budget",
        "template", "constants", "overrides", "_coverage",
    )  # fmt: skip

    def __init__(
        self,
        pinned: CoverageDecision,
        provenance: str,
        generation: int,
        query: Optional["Query"] = None,
        budget: Optional[int] = None,
        *,
        template: Optional[RebindTemplate] = None,
        constants: Optional[Constants] = None,
        overrides: Optional[Mapping[str, tuple]] = None,
    ) -> None:
        self.pinned = pinned
        self.provenance = provenance
        self.generation = generation
        self.query = query
        #: ``run()`` defaults to it, so an over-budget verdict is never
        #: silently executed unbounded
        self.budget = budget
        self.template = template
        self.constants = constants
        self.overrides = overrides
        self._coverage: Optional[CoverageDecision] = None

    def __repr__(self) -> str:
        return (
            f"Decision({self.verdict}, {self.provenance}, "
            f"generation={self.generation}, budget={self.budget})"
        )

    def restamped(self, provenance: str, query: Optional["Query"]) -> "Decision":
        """This decision under another provenance and query handle (same
        generation and budget), sharing whatever it has built."""
        decision = Decision(
            self.pinned, provenance, self.generation, query, self.budget,
            template=self.template, constants=self.constants, overrides=self.overrides,
        )  # fmt: skip
        decision._coverage = self._coverage
        return decision

    # ------------------------------------------------------------------ #
    @property
    def covered(self) -> bool:
        return self.pinned.covered

    @property
    def verdict(self) -> str:
        """``"bounded"`` when a bounded plan exists, else
        ``"not-covered"`` (execution falls back per §2)."""
        return "bounded" if self.pinned.covered else "not-covered"

    @property
    def access_bound(self) -> Optional[int]:
        return self.pinned.access_bound

    @property
    def tight_access_bound(self) -> Optional[int]:
        return self.pinned.tight_access_bound

    @property
    def bag_exact(self) -> bool:
        return self.pinned.bag_exact

    @property
    def reasons(self) -> list[str]:
        return self.pinned.reasons

    @property
    def constraints_used(self) -> list[AccessConstraint]:
        return self.pinned.constraints_used

    @property
    def within_budget(self) -> Optional[bool]:
        """Whether the access bound fits ``budget`` (None: no budget, or
        not covered)."""
        bound = self.pinned.access_bound
        if self.budget is None or bound is None:
            return None
        return bound <= self.budget

    @property
    def runs(self) -> Union[AnyBoundedPlan, "PartialPlan", None]:
        """What executing this decision runs off ``constants``, without
        building a patched plan: the pinned bounded plan, or the pinned
        partially bounded plan (None: the conventional engine)."""
        pinned = self.pinned
        return pinned.plan if pinned.covered else pinned.partial

    @property
    def coverage(self) -> CoverageDecision:
        """The checker outcome for this binding and budget: the pinned
        one, or, rebound or with a budget verdict of its own, a copy
        built on first read."""
        coverage = self._coverage
        if coverage is None:
            pinned = self.pinned
            if self.template is not None:
                coverage = self.template.coverage(self)
            elif self.within_budget != pinned.within_budget:
                coverage = patched(pinned, within_budget=self.within_budget)
            else:
                return pinned
            self._coverage = coverage
        return coverage

    @property
    def plan(self) -> Optional[AnyBoundedPlan]:
        return (self.pinned if self.template is None else self.coverage).plan

    # ------------------------------------------------------------------ #
    def run(
        self,
        *,
        options: Optional["ExecutionOptions"] = None,
        **fields: Any,
    ) -> "Result":
        """Execute under this (pinned) decision.

        Runs the bound query through the serving caches: the decision
        pinned here is a cache hit, so no BE Checker work is repeated —
        decide once, run many. The budget the decision was evaluated
        against carries over unless the call layer overrides it, so
        ``decide(budget=...)`` → ``run()`` enforces the budget (raising
        :class:`~repro.errors.BudgetExceededError` or taking the
        approximation route) instead of silently running unbounded.
        """
        if self.query is None:
            raise BEASError(
                "this Decision is not attached to a Query handle; "
                "use session.query(...).decide()"
            )
        if (
            self.budget is not None
            and "budget" not in fields
            and (options is None or options.budget is None)
        ):
            fields["budget"] = self.budget
        return self.query.run(options=options, **fields)

    def explain(self) -> str:
        """The bounded plan listing; not covered, the reasons and, when a
        bounded prefix exists, the partially bounded plan with the steps
        its residual runs on the prefix's rows."""
        coverage = self.coverage
        if coverage.covered and coverage.plan is not None:
            return explain_plan(coverage.plan)
        lines = [coverage.describe()]
        partial = coverage.partial
        if partial is not None:
            lines.append(partial.describe())
            lines.append("residual plan (its steps on the prefix's rows, in order):")
            lines.append(partial.residual.explain(partial.cq))
        return "\n".join(lines)

    def describe(self) -> str:
        lines = [
            f"decision: {self.verdict} ({self.provenance}, "
            f"schema generation {self.generation})",
            self.coverage.describe(),
        ]
        return "\n".join(lines)


def build_rebind_template(
    decision: CoverageDecision, overrides: Mapping[str, tuple]
) -> Optional[RebindTemplate]:
    """A :class:`RebindTemplate` for a freshly pinned decision, or
    ``None`` when the decision cannot soundly rebind (a set operation,
    not covered without a partially bounded plan, or an override that
    does not surface as a selection of the decided query).

    ``overrides`` is the binding the decision was pinned under; its keys
    delimit which selections future equal-signature bindings may patch.
    """
    partial = decision.partial
    if partial is not None:
        cq = partial.cq
    elif decision.covered and isinstance(decision.plan, BoundedPlan):
        cq = decision.plan.cq
    else:
        return None
    selection_names = {str(attr) for attr in cq.selections}
    for name in overrides:
        if name not in selection_names:
            # the slot's conjunct did not normalize to a selection (e.g.
            # it was absorbed elsewhere): patching would be unsound
            return None
    return RebindTemplate(decision)
