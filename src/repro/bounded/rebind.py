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
of a prepared template can be **rebound** for another binding of equal
arity by patching the plan's constant key parts directly:

* every ``fetch`` op's ``KeyPart(source="const")`` tuples,
* every ``selection`` op's value tuple,
* the canonical query's per-attribute selections (what makes the
  rebound plan ``==`` to a freshly decided one),

leaving the deduced bounds — and therefore budget feasibility — exactly
as pinned. The executor then presents the same *number* of keys per
fetch in the same canonical order, so ``tuples_fetched`` accounting and
bound enforcement are identical to a freshly decided plan; the
rebinding differential suite (``tests/test_rebinding_differential.py``)
locks rebound-vs-fresh equality down to exact row order and per-fetch-op
metrics, in the spirit of bag-semantics equivalence checking (Zhou et
al., PAPERS.md).

The rebind itself is built to be an order of magnitude cheaper than a
checker run (``benchmarks/bench_rebind.py`` measures it across a
binding stream): :func:`build_rebind_template` precomputes, once per
(template, arity signature), which plan operators draw constants from
which equality class and which class each slot feeds, so a rebind only
touches the classes the new binding actually changes — it re-derives
their merged tuples, checks the arity guard and writes the tuples into
shallow copies of the operators that read them. The rebound plan shares
the pinned plan's compiled skeleton (:mod:`repro.bounded.skeleton`), so
executing it re-derives nothing either.

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
* only covered single-block decisions (a :class:`BoundedPlan`) rebind;
  set operations and not-covered verdicts always re-check.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.bounded.coverage import CoverageDecision
from repro.bounded.plan import BoundedPlan, FetchOp, KeyPart, patched
from repro.bounded.planner import class_constant_map, equality_classes
from repro.sql.normalize import Attribute, ConjunctiveQuery


def _canonical_selection(values) -> tuple:
    """Canonicalise one selection's values exactly as the normalizer does
    (``sql.normalize._intersect_selection``): dedupe, then sort by
    (type name, value) so the rebound plan enumerates keys in the same
    order a fresh normalize would."""
    if len(values) == 1:
        return tuple(values)
    return tuple(sorted(set(values), key=lambda v: (str(type(v)), v)))


class _ClassSlot:
    """One equality class that carries constants: who contributes to its
    merged constant tuple, the arity the decision was pinned at, and every
    site of the pinned plan that reads the tuple."""

    __slots__ = ("contributors", "arity", "fetch_sites", "select_sites")

    def __init__(self, arity: int) -> None:
        #: (slot name, selection attribute, the template's own values),
        #: in ``cq.selections`` order — the order the merge intersects in
        self.contributors: list[tuple[str, Attribute, tuple]] = []
        self.arity = arity
        self.fetch_sites: list[tuple[int, int]] = []  # (op index, key part index)
        self.select_sites: list[int] = []  # op index


class RebindTemplate:
    """One pinned decision plus a precomputed constant-patch plan.

    Built once per (template fingerprint, arity signature) by
    :func:`build_rebind_template`; every equal-signature binding then
    pays only the patch in :meth:`rebind` — no parse, no normalize, no
    plan search, and no work on equality classes the binding leaves
    untouched. What the pinned plan's first execution compiled (its
    skeleton, :mod:`repro.bounded.skeleton`) travels with every rebound
    plan, so an equal-signature binding re-derives nothing but constants.
    """

    __slots__ = ("decision", "plan", "_class_of_slot")

    def __init__(self, decision: CoverageDecision):
        self.decision = decision
        plan = decision.plan
        assert isinstance(plan, BoundedPlan)
        self.plan: BoundedPlan = plan
        cq = plan.cq
        uf = equality_classes(cq)
        pinned = class_constant_map(cq, uf)

        by_root: dict[Attribute, _ClassSlot] = {}
        self._class_of_slot: dict[str, _ClassSlot] = {}
        for attr, values in cq.selections.items():
            root = uf.find(attr)
            slot = by_root.get(root)
            if slot is None:
                slot = by_root[root] = _ClassSlot(len(pinned[root]))
            name = str(attr)
            slot.contributors.append((name, attr, values))
            self._class_of_slot[name] = slot

        # the patch plan: which ops draw constants from which class
        for index, op in enumerate(plan.ops):
            if isinstance(op, FetchOp):
                for i, part in enumerate(op.key_parts):
                    if part.source == "const":
                        root = uf.find(Attribute(op.binding, part.attribute))
                        by_root[root].fetch_sites.append((index, i))
            elif op.kind == "selection":
                by_root[uf.find(op.column)].select_sites.append(index)

    # ------------------------------------------------------------------ #
    def rebind(
        self, overrides: Mapping[str, tuple]
    ) -> Optional[CoverageDecision]:
        """The pinned decision patched for ``overrides``, or ``None``
        when a guard demands a full re-check.

        ``overrides`` maps resolved slot names to canonical value tuples
        (``repro.serving.params.resolve_overrides`` output). Slots not
        overridden keep the template's own constants.
        """
        # which equality classes does this binding actually touch?
        touched: list[_ClassSlot] = []
        for name in overrides:
            slot = self._class_of_slot.get(name)
            if slot is None:
                return None  # unknown slot: shape mismatch, re-check
            if slot not in touched:
                touched.append(slot)
        if not touched:
            return self.decision  # the template's own constants

        # Patch copies (untouched ops are shared). The copies keep every
        # deduced bound, and the plan copy keeps the pinned plan's
        # skeleton slot: what was compiled for one binding of this shape
        # runs them all.
        plan = self.plan
        pinned_ops = plan.ops
        new_ops = list(pinned_ops)
        new_selections = dict(plan.cq.selections)
        for slot in touched:
            # re-derive the class's merged constants; a merged-arity
            # change would change the deduced bounds, so it forces a full
            # re-check (the guard)
            merged: Optional[tuple] = None
            for name, attr, template_values in slot.contributors:
                fresh = overrides.get(name)
                values = (
                    _canonical_selection(fresh)
                    if fresh is not None
                    else template_values
                )
                new_selections[attr] = values  # the canonical query's copy
                if merged is None:
                    merged = values
                else:
                    existing = set(merged)
                    merged = tuple(v for v in values if v in existing)
            assert merged is not None
            if len(merged) != slot.arity:
                return None  # merged arity changed: bounds would move

            # fill the class's sites with the merged tuple
            for index, part_index in slot.fetch_sites:
                op = new_ops[index]
                if op is pinned_ops[index]:
                    op = new_ops[index] = patched(op, key_parts=list(op.key_parts))
                op.key_parts[part_index] = KeyPart(
                    op.key_parts[part_index].attribute, "const", None, merged
                )
            for index in slot.select_sites:
                new_ops[index] = patched(pinned_ops[index], values=merged)

        new_cq = patched(plan.cq, selections=new_selections)
        return patched(self.decision, plan=plan.rebound(new_ops, new_cq))


def build_rebind_template(
    decision: CoverageDecision, overrides: Mapping[str, tuple]
) -> Optional[RebindTemplate]:
    """A :class:`RebindTemplate` for a freshly pinned decision, or
    ``None`` when the decision cannot soundly rebind (not covered, a set
    operation, or an override that does not surface as a selection).

    ``overrides`` is the binding the decision was pinned under; its keys
    delimit which selections future equal-signature bindings may patch.
    """
    if not decision.covered or not isinstance(decision.plan, BoundedPlan):
        return None
    cq: ConjunctiveQuery = decision.plan.cq
    selection_names = {str(attr) for attr in cq.selections}
    for name in overrides:
        if name not in selection_names:
            # the slot's conjunct did not normalize to a selection (e.g.
            # it was absorbed elsewhere): patching would be unsound
            return None
    return RebindTemplate(decision)
