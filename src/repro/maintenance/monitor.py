"""Bound drift monitoring and re-estimation.

The maintenance module periodically re-examines how tight each declared
bound ``N`` still is. A bound far above the observed maximum wastes the
deduced access bounds (plans look more expensive than they are, budget
checks reject answerable queries); an observed maximum at (or past) the
bound signals imminent violations. The monitor reports both and proposes
new bounds with a configurable slack factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.access.catalog import ASCatalog


@dataclass(frozen=True)
class BoundSuggestion:
    """Proposed adjustment for one constraint."""

    constraint_name: str
    declared_n: int
    observed_max: int
    suggested_n: int
    kind: str  # 'tighten' | 'widen' | 'keep'


@dataclass
class DriftReport:
    suggestions: list[BoundSuggestion] = field(default_factory=list)

    @property
    def drifting(self) -> list[BoundSuggestion]:
        return [s for s in self.suggestions if s.kind != "keep"]

    def describe(self) -> str:
        if not self.suggestions:
            return "no constraints registered"
        lines = []
        for s in self.suggestions:
            lines.append(
                f"{s.constraint_name}: declared N={s.declared_n}, observed "
                f"max={s.observed_max} -> {s.kind}"
                + (f" to {s.suggested_n}" if s.kind != "keep" else "")
            )
        return "\n".join(lines)


class DriftMonitor:
    """Compares declared bounds against the live index statistics."""

    def __init__(
        self,
        catalog: ASCatalog,
        *,
        slack: float = 1.2,
        tighten_threshold: float = 4.0,
    ):
        """``slack`` is the headroom multiplier applied to observed maxima;
        a constraint is proposed for tightening only when its declared N
        exceeds ``tighten_threshold`` times the slacked observation (small
        drift is not worth churning plans over)."""
        if slack < 1.0:
            raise ValueError("slack must be >= 1.0")
        self._catalog = catalog
        self._slack = slack
        self._tighten_threshold = tighten_threshold

    def report(self) -> DriftReport:
        report = DriftReport()
        for constraint in self._catalog.schema:
            index = self._catalog.index_for(constraint)
            observed = index.max_bucket_size
            slacked = max(int(math.ceil(observed * self._slack)), 1)
            if observed > constraint.n:
                kind, suggested = "widen", slacked
            elif constraint.n > slacked * self._tighten_threshold:
                kind, suggested = "tighten", slacked
            else:
                kind, suggested = "keep", constraint.n
            report.suggestions.append(
                BoundSuggestion(
                    constraint_name=constraint.name,
                    declared_n=constraint.n,
                    observed_max=observed,
                    suggested_n=suggested,
                    kind=kind,
                )
            )
        return report

    def apply(self, report: Optional[DriftReport] = None) -> list[str]:
        """Apply the report's non-'keep' suggestions; returns changed names."""
        if report is None:
            report = self.report()
        return self._catalog.set_bounds(
            {s.constraint_name: s.suggested_n for s in report.drifting}
        )
