"""What the engine's serving state reports, and how large it is.

:class:`~repro.beas.system.BEAS` holds the serving state over its one
database (the parse, decision and result caches, the per-table shards
and the schema lock, the prepared registry, the router; see its module
doc) and builds its caches with the geometry below, read when the
engine is built: a test shrinks a cache by setting the constant first.
:class:`ServingStats` is what ``BEAS.stats()`` (``Session.stats()``)
returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.distributed.peerset import PeerStats
from repro.engine.router import RouterStats
from repro.serving.cache import CacheStats
from repro.serving.shard import LockStats, ShardStats
from repro.storage.mmapstore import StorageStats

#: Shard name for names that are no table. (A query with an empty
#: dependency set takes the schema hold alone.)
GLOBAL_SHARD = "__global__"

#: The cache geometry: parse-cache and decision-cache entries and lock
#: stripes, and the result cache's byte budget (its one budget: what an
#: entry is charged is ``serving.cache.result_size``).
PARSE_CACHE_ENTRIES = 512
PARSE_STRIPES = 4
DECISION_CACHE_ENTRIES = 1024
DECISION_STRIPES = 8
RESULT_CACHE_BYTES = 8 << 20


@dataclass
class ServingStats:
    """Aggregated serving counters (``BEAS.stats()``)."""

    parse: CacheStats
    decision: CacheStats
    result: CacheStats
    # ad-hoc templates: text-cache misses resolved by shape (hits) or by
    # a parse (misses), and the templates held
    adhoc: CacheStats = field(default_factory=lambda: CacheStats("template"))
    adhoc_templates: int = 0
    # what the result cache holds (read keys: the live entries' read-set
    # sizes, summed) against its byte budget, the re-execution seconds its
    # hits saved (the measured cost of each entry a hit served), and
    # ``result.invalidations`` by cause
    result_entries: int = 0
    result_bytes: int = 0
    result_max_bytes: int = 0
    result_read_keys: int = 0
    result_saved_s: float = 0.0
    invalidated_exact: int = 0
    invalidated_coarse: int = 0
    invalidated_sweep: int = 0
    prepared_queries: int = 0
    executions: int = 0
    schema_generation: int = 0
    table_versions: dict[str, int] = field(default_factory=dict)
    shards: dict[str, ShardStats] = field(default_factory=dict)
    schema_lock: Optional[LockStats] = None
    admission_declines: int = 0
    # plan-rebinding counters: decisions served by patching a pinned
    # plan's constants (no BE Checker run), guard-triggered fallbacks to
    # a full re-check, and the underlying checker's lifetime run count
    rebinds: int = 0
    rebind_fallbacks: int = 0
    checker_runs: int = 0
    # engine-pool counters (None while no pool has started): requests
    # dispatch bounded work to the engine's worker processes when it was
    # built with parallelism >= 2
    pool: Optional[PeerStats] = None
    # serving-fleet counters (None while no replica fleet has spawned):
    # covered bounded requests are answered by the engine's
    # socket-connected read replicas when it was built with replicas >= 2
    fleet: Optional[PeerStats] = None
    # learned-routing counters (routing="learned" requests): per-route
    # decisions, exploration rate, training observations
    routing: Optional[RouterStats] = None
    # persistent-storage counters (None while the engine runs the
    # in-memory store): warm-start provenance, WAL traffic, checkpoints
    storage: Optional[StorageStats] = None

    @property
    def lock_wait_seconds(self) -> float:
        """Total time requests spent blocked on shard + schema locks."""
        total = sum(s.lock.wait_seconds for s in self.shards.values())
        if self.schema_lock is not None:
            total += self.schema_lock.wait_seconds
        return total

    @property
    def contended_acquisitions(self) -> int:
        total = sum(s.lock.contended_acquisitions for s in self.shards.values())
        if self.schema_lock is not None:
            total += self.schema_lock.contended_acquisitions
        return total

    def describe(self) -> str:
        lines = [
            "serving stats:",
            f"  {self.parse.describe()}",
            f"  {self.adhoc.describe()}, {self.adhoc_templates} ad-hoc templates",
            f"  {self.decision.describe()}",
            f"  {self.result.describe()}",
            f"  result cache: {self.result_entries} entries, "
            f"{self.result_bytes} of {self.result_max_bytes} bytes, "
            f"{self.result_read_keys} read-set keys filed, "
            f"{self.admission_declines} admissions declined; invalidated "
            f"{self.invalidated_exact} exact / {self.invalidated_coarse} "
            f"coarse / {self.invalidated_sweep} by sweep; hits saved "
            f"{self.result_saved_s * 1000:.2f} ms of re-execution",
            f"  prepared queries: {self.prepared_queries}",
            f"  executions served: {self.executions}",
            f"  plan rebinds: {self.rebinds} served without the BE Checker "
            f"({self.rebind_fallbacks} guard fallbacks, "
            f"{self.checker_runs} checker runs total)",
            f"  access-schema generation: {self.schema_generation}",
            f"  lock contention: {self.contended_acquisitions} contended "
            f"acquisitions, waited {self.lock_wait_seconds * 1000:.2f} ms",
        ]
        if self.pool is not None:
            lines.append(f"  {self.pool.describe()}")
        if self.fleet is not None:
            lines.append(f"  {self.fleet.describe()}")
        if self.storage is not None:
            for line in self.storage.describe().splitlines():
                lines.append(f"  {line}")
        if self.routing is not None and self.routing.decisions:
            for line in self.routing.describe().splitlines():
                lines.append(f"  {line}")
        for name in sorted(self.shards):
            lines.append(f"  {self.shards[name].describe()}")
        return "\n".join(lines)
