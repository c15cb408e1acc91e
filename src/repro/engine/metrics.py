"""Execution metrics shared by both engines.

The paper's Fig. 3 reports, per query: total time, number of tuples
fetched/scanned, and a per-operation cost breakdown. Both the conventional
executor and the BE plan executor populate this structure so the analyzer
can compare them operation by operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class OperationCost:
    """Cost record for one physical operation in a plan."""

    label: str  # human-readable, e.g. "scan(call)" or "fetch(psi1)"
    tuples_in: int = 0
    tuples_out: int = 0
    seconds: float = 0.0


@dataclass
class ExecutionMetrics:
    """Aggregated counters for one query execution."""

    tuples_scanned: int = 0  # base-table tuples read (full rows)
    tuples_fetched: int = 0  # partial tuples fetched via access indices
    intermediate_rows: int = 0  # rows produced by joins/filters
    rows_output: int = 0
    seconds: float = 0.0
    operations: list[OperationCost] = field(default_factory=list)
    # --- serving-layer counters (repro.serving): per-request cache events ---
    cache_hits: int = 0  # serving-cache hits while answering this request
    cache_misses: int = 0  # serving-cache misses while answering this request
    served_from_cache: bool = False  # rows came from the result cache
    # how the coverage decision driving this request was obtained:
    # "fresh" (full BE Checker run), "cached" (exact decision-cache hit),
    # "rebound" (constraint-preserving plan rebind, no checker run),
    # "result-cache" (rows served straight from the result cache), or ""
    # when the request bypassed the serving layer
    decision_provenance: str = ""
    # --- columnar-executor counters (engine.columnar) ---
    rows_per_batch: int = 0  # configured batch size (0 = row executor)
    batches: int = 0  # fetch-input batches of rows_per_batch rows (columnar)
    # --- engine-pool counters (engine.pool): parallel bounded execution ---
    pool_workers: int = 0  # worker processes available to this execution
    pool_batches: int = 0  # column batches / whole plans run on workers
    pool_wait_seconds: float = 0.0  # time blocked acquiring pool workers
    # pooled dispatches that fell back in-process (exhaustion, worker
    # death, unsupported shape); a pooled execution with fallbacks is a
    # (partially) serial run and must not count toward the pool's mean
    pool_fallbacks: int = 0
    # --- distributed-serving counters (repro.distributed) ---
    replica_id: int = -1  # serving replica that answered (-1 = not a fleet run)
    wire_seconds: float = 0.0  # socket round-trip time for the fleet dispatch
    # --- adaptive-routing counters (engine.router) ---
    routed_mode: str = ""  # route the learned router picked ("" = static)
    routing_explored: bool = False  # route was an exploration, not the argmin
    # --- sharded-serving counters: per-request concurrency events ---
    lock_wait_seconds: float = 0.0  # time blocked on schema + shard locks
    # the consistent per-table data-version vector this answer was computed
    # under (read while holding every dependency shard's read lock); lets
    # callers — and the concurrent differential fuzz — pin the exact
    # snapshot an answer reflects
    table_versions: dict[str, int] = field(default_factory=dict)

    @property
    def tuples_accessed(self) -> int:
        """Total base-data tuples touched (scan + fetch)."""
        return self.tuples_scanned + self.tuples_fetched

    def record(self, label: str, tuples_in: int, tuples_out: int, seconds: float) -> OperationCost:
        op = OperationCost(label, tuples_in, tuples_out, seconds)
        self.operations.append(op)
        return op
