"""Access schema discovery (S7).

Paper §3, Discovery module: *"Given an application, it automatically
discovers an access schema from its real-life datasets. It is a
multi-criteria optimization problem that covers (a) the performance of
bounded evaluation of the query load, (b) storage limit for indices, (c)
historical query patterns, and (d) statistics of datasets in the
application."* The algorithm itself was deferred to a later publication;
this package implements a principled instantiation honouring exactly those
inputs and outputs:

1. :mod:`repro.discovery.candidates` mines candidate ``R(X -> Y)`` shapes
   from the workload's query patterns (constants and join attributes form
   ``X``; the attributes the query needs form ``Y``);
2. :mod:`repro.discovery.profiler` reads the tightest bound ``N`` and
   the index storage cost of each candidate off an unvalidated
   :class:`~repro.access.index.AccessIndex` built over the data;
3. :mod:`repro.discovery.selector` greedily selects candidates under the
   storage budget, maximising the chosen objective (queries covered,
   coverage per storage cell, or minimum total access bound).
"""

from repro.discovery.candidates import CandidateConstraint, mine_candidates
from repro.discovery.profiler import ProfiledCandidate, profile_candidate, profile_candidates
from repro.discovery.selector import (
    DiscoveryObjective,
    DiscoveryResult,
    discover,
    select_constraints,
)

__all__ = [
    "CandidateConstraint",
    "mine_candidates",
    "ProfiledCandidate",
    "profile_candidate",
    "profile_candidates",
    "DiscoveryObjective",
    "DiscoveryResult",
    "discover",
    "select_constraints",
]
