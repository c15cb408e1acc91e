"""Profile candidate constraints against the data.

For each mined candidate ``R(X -> Y)`` the profiler builds the
candidate's :class:`~repro.access.index.AccessIndex` over ``R`` without
validation (the one grouping of ``R`` by ``X``) and reads from it:

* the tightest cardinality bound ``N`` the data supports (the paper's
  constants — 500, 12, 2000 in Example 1 — are "upper bounds aggregated
  from historical datasets", so a slack factor can inflate the observed
  maximum to leave headroom for future data);
* the index storage cost in value cells (keys + bucket entries), checked
  against the discovery storage limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.access.constraint import AccessConstraint
from repro.access.index import AccessIndex
from repro.discovery.candidates import CandidateConstraint
from repro.storage.database import Database


@dataclass(frozen=True)
class ProfiledCandidate:
    """A candidate with data-derived bound and storage cost."""

    candidate: CandidateConstraint
    n: int  # declared bound (observed max, inflated by slack)
    observed_max: int  # tightest bound the current data supports
    key_count: int
    entry_count: int
    storage_cells: int

    def to_constraint(self, name: Optional[str] = None) -> AccessConstraint:
        return AccessConstraint(
            self.candidate.relation,
            self.candidate.x,
            self.candidate.y,
            self.n,
            name=name,
        )

    @property
    def supporting_queries(self) -> frozenset[int]:
        return self.candidate.supporting_queries


def profile_candidate(
    database: Database,
    candidate: CandidateConstraint,
    *,
    slack: float = 1.0,
    max_n: Optional[int] = None,
) -> Optional[ProfiledCandidate]:
    """Profile one candidate; ``None`` when its bound would exceed ``max_n``.

    ``slack >= 1.0`` inflates the observed maximum group size, mirroring
    how the paper's constants are aggregated upper bounds rather than
    exact maxima.
    """
    # named: a nameless constraint would take the next global psi<n>
    profiled = AccessConstraint(
        candidate.relation, candidate.x, candidate.y, 0, name="candidate"
    )
    index = AccessIndex(profiled).build(
        database.table(candidate.relation), validate=False
    )
    observed = index.max_bucket_size
    declared = max(int(math.ceil(observed * slack)), observed, 1)
    if max_n is not None and declared > max_n:
        return None
    entries = index.entry_count
    return ProfiledCandidate(
        candidate=candidate,
        n=declared,
        observed_max=observed,
        key_count=index.key_count,
        entry_count=entries,
        storage_cells=index.storage_cells(entries),
    )


def profile_candidates(
    database: Database,
    candidates: Iterable[CandidateConstraint],
    *,
    slack: float = 1.0,
    max_n: Optional[int] = None,
) -> list[ProfiledCandidate]:
    """Profile many candidates, dropping those whose bound is too loose."""
    out: list[ProfiledCandidate] = []
    for candidate in candidates:
        profiled = profile_candidate(database, candidate, slack=slack, max_n=max_n)
        if profiled is not None:
            out.append(profiled)
    return out
