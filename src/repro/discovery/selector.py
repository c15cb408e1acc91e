"""Greedy multi-criteria selection of an access schema.

The selector chooses a subset of profiled candidates that maximises the
discovery objective subject to the index storage limit, then registers the
winners as an :class:`~repro.access.schema.AccessSchema`. Objectives
(paper §3: "a choice of the objective function"):

* ``COVERAGE`` — maximise the number of (weighted) workload queries that
  become boundedly evaluable;
* ``COVERAGE_PER_STORAGE`` — the same, but each step picks the candidate
  with the best newly-covered-queries / storage-cells ratio;
* ``MIN_BOUND`` — among schemas with maximal coverage, prefer the one
  whose covered queries have the smallest total deduced access bound
  (bounded-evaluation *performance*, criterion (a) of the paper).

Each greedy step re-runs the BE Checker over the workload with the
tentative schema — coverage is measured by the actual planner, not a
proxy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.access.schema import AccessSchema
from repro.catalog.schema import DatabaseSchema
from repro.sql import ast
from repro.storage.database import Database
from repro.bounded.coverage import BoundedEvaluabilityChecker
from repro.discovery.candidates import mine_candidates
from repro.discovery.profiler import ProfiledCandidate, profile_candidates

Query = Union[str, ast.Statement]


class DiscoveryObjective(enum.Enum):
    COVERAGE = "coverage"
    COVERAGE_PER_STORAGE = "coverage_per_storage"
    MIN_BOUND = "min_bound"


@dataclass
class DiscoveryResult:
    """Outcome of a discovery run (what Fig. 2(D)/(E) displays)."""

    schema: AccessSchema
    selected: list[ProfiledCandidate]
    covered_queries: set[int]
    storage_used: int
    storage_budget: Optional[int]
    objective: DiscoveryObjective
    total_access_bound: int  # sum of deduced bounds over covered queries
    candidates_considered: int = 0
    rejected_over_budget: int = 0

    def describe(self) -> str:
        lines = [
            f"discovered {len(self.selected)} constraints "
            f"({self.storage_used} storage cells"
            + (
                f" of {self.storage_budget} budget"
                if self.storage_budget is not None
                else ""
            )
            + f"), covering {len(self.covered_queries)} queries "
            f"[objective: {self.objective.value}]",
        ]
        lines.extend(str(p.to_constraint(name=f"d{i}")) for i, p in enumerate(self.selected))
        return "\n".join(lines)


def _workload_coverage(
    db_schema: DatabaseSchema,
    schema: AccessSchema,
    workload: Sequence[Query],
    weights: Sequence[float],
) -> tuple[set[int], float, int]:
    """(covered query indices, weighted coverage, total access bound)."""
    checker = BoundedEvaluabilityChecker(db_schema, schema)
    covered: set[int] = set()
    weighted = 0.0
    total_bound = 0
    for index, query in enumerate(workload):
        decision = checker.check(query)
        if decision.covered:
            covered.add(index)
            weighted += weights[index]
            total_bound += decision.access_bound or 0
    return covered, weighted, total_bound


def _query_batch(
    db_schema,
    selected,
    remaining,
    workload,
    weights,
    storage_used,
    storage_budget,
    current_weighted,
    build_schema,
):
    """Best-effort batch step: all candidates of one uncovered query.

    Returns ``(profiles, covered, weighted, bound)`` for the first query
    (heaviest first) whose candidate batch fits the budget and raises
    weighted coverage, or ``None``.
    """
    covered_now, _, _ = _workload_coverage(
        db_schema, build_schema(selected), workload, weights
    )
    uncovered = [
        i for i in range(len(workload)) if i not in covered_now and weights[i] > 0
    ]
    uncovered.sort(key=lambda i: -weights[i])
    for query_index in uncovered:
        batch = [
            p for p in remaining if query_index in p.supporting_queries
        ]
        if not batch:
            continue
        batch_storage = sum(p.storage_cells for p in batch)
        if (
            storage_budget is not None
            and storage_used + batch_storage > storage_budget
        ):
            continue
        tentative = build_schema(selected + batch)
        covered, weighted, bound = _workload_coverage(
            db_schema, tentative, workload, weights
        )
        if weighted > current_weighted:
            return batch, covered, weighted, bound
    return None


def select_constraints(
    database: Database,
    profiled: Sequence[ProfiledCandidate],
    workload: Sequence[Query],
    *,
    storage_budget: Optional[int] = None,
    objective: DiscoveryObjective = DiscoveryObjective.COVERAGE,
    weights: Optional[Sequence[float]] = None,
    schema_name: str = "discovered",
) -> DiscoveryResult:
    """Greedy selection under the storage budget."""
    weights = list(weights) if weights is not None else [1.0] * len(workload)
    if len(weights) != len(workload):
        raise ValueError("weights must match the workload length")

    db_schema = database.schema
    selected: list[ProfiledCandidate] = []
    storage_used = 0
    rejected_over_budget = 0

    def build_schema(candidates: Sequence[ProfiledCandidate]) -> AccessSchema:
        schema = AccessSchema(name=schema_name)
        for i, profile in enumerate(candidates):
            schema.add(profile.to_constraint(name=f"d{i}"))
        return schema

    covered, weighted, total_bound = _workload_coverage(
        db_schema, build_schema(selected), workload, weights
    )
    remaining = list(profiled)
    while remaining:
        best = None
        best_score: tuple = ()
        for profile in remaining:
            if (
                storage_budget is not None
                and storage_used + profile.storage_cells > storage_budget
            ):
                continue
            tentative = build_schema(selected + [profile])
            new_covered, new_weighted, new_bound = _workload_coverage(
                db_schema, tentative, workload, weights
            )
            gain = new_weighted - weighted
            if objective is DiscoveryObjective.COVERAGE_PER_STORAGE:
                score = (
                    gain / max(profile.storage_cells, 1),
                    gain,
                    -profile.storage_cells,
                )
            elif objective is DiscoveryObjective.MIN_BOUND:
                score = (gain, -new_bound, -profile.storage_cells)
            else:
                score = (gain, -profile.storage_cells, -profile.n)
            if gain > 0 and (best is None or score > best_score):
                best = (profile, new_covered, new_weighted, new_bound)
                best_score = score
        if best is None:
            # No single candidate covers a new query — multi-relation
            # queries need several constraints at once. Try, per uncovered
            # query (heaviest first), adding all of its candidates as a
            # batch; keep the batch if coverage improves and fits.
            batch = _query_batch(
                db_schema, selected, remaining, workload, weights,
                storage_used, storage_budget, weighted, build_schema,
            )
            if batch is None:
                break
            batch_profiles, covered, weighted, total_bound = batch
            selected.extend(batch_profiles)
            storage_used += sum(p.storage_cells for p in batch_profiles)
            remaining = [p for p in remaining if p not in batch_profiles]
            continue
        profile, covered, weighted, total_bound = best
        selected.append(profile)
        storage_used += profile.storage_cells
        remaining = [p for p in remaining if p is not profile]

    # prune redundant picks: drop any constraint whose removal keeps the
    # weighted coverage intact (batch steps can over-select)
    pruned = True
    while pruned:
        pruned = False
        for candidate in sorted(selected, key=lambda p: -p.storage_cells):
            trimmed = [p for p in selected if p is not candidate]
            _, trimmed_weighted, _ = _workload_coverage(
                db_schema, build_schema(trimmed), workload, weights
            )
            if trimmed_weighted >= weighted:
                selected = trimmed
                storage_used -= candidate.storage_cells
                pruned = True
                break
    covered, weighted, total_bound = _workload_coverage(
        db_schema, build_schema(selected), workload, weights
    )

    if storage_budget is not None:
        rejected_over_budget = sum(
            1 for p in profiled if p.storage_cells > storage_budget
        )

    return DiscoveryResult(
        schema=build_schema(selected),
        selected=selected,
        covered_queries=covered,
        storage_used=storage_used,
        storage_budget=storage_budget,
        objective=objective,
        total_access_bound=total_bound,
        candidates_considered=len(profiled),
        rejected_over_budget=rejected_over_budget,
    )


def discover(
    database: Database,
    workload: Sequence[Query],
    *,
    storage_budget: Optional[int] = None,
    objective: DiscoveryObjective = DiscoveryObjective.COVERAGE,
    weights: Optional[Sequence[float]] = None,
    slack: float = 1.0,
    max_n: Optional[int] = None,
    schema_name: str = "discovered",
) -> DiscoveryResult:
    """End-to-end discovery: mine -> profile -> select.

    This is the offline service of Fig. 2(D): input a dataset, a set of
    query patterns, and an objective; output a registered access schema.
    """
    candidates = mine_candidates(workload, database.schema)
    profiled = profile_candidates(database, candidates, slack=slack, max_n=max_n)
    return select_constraints(
        database,
        profiled,
        workload,
        storage_budget=storage_budget,
        objective=objective,
        weights=weights,
        schema_name=schema_name,
    )
