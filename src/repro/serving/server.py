"""The prepared-query serving layer: the sharded ``BEASServer``.

Wraps one :class:`~repro.beas.system.BEAS` instance with the machinery a
high-traffic deployment needs to amortise per-query frontend cost. It
has no read API of its own: every read is a
:class:`~repro.beas.session.Session` request (``Session.run``,
``Query.run``), which runs the stages of :mod:`repro.serving.request`
over this server's locks and caches with the session's options.

* a **parse cache** (SQL text -> the binding of its shape's template;
  a new text of a known shape is never parsed),
* a **coverage-decision cache** keyed by (query fingerprint,
  access-schema generation) — the pinned BE Checker outcome and bounded
  plan for each distinct query/binding,
* one **result cache** with entry and byte budgets
  (:class:`~repro.serving.cache.ResultCache`) that, when full, evicts the
  answer cheapest to recompute: a maintenance batch drops the answers
  that fetched a bucket it changed, and those whose read set is not known
  key by key (``docs/invariants.md``, "Result-cache validity").

Concurrency model (the sharded architecture):

* Locking is **partitioned by table**: each table gets a
  :class:`~repro.serving.shard.Shard` holding a reader/writer lock
  over the table's rows + access indices. Single-table queries and
  maintenance batches on disjoint tables proceed fully in parallel; a
  multi-table join holds read locks on every dependency shard at once,
  so its answer is computed against one consistent table-version
  vector — no torn reads across shards.
* **One grant per request**: every lock of a server shares one
  condition, and a read's schema and dependency holds (a batch's
  schema read and table write hold) are granted together in one
  critical section (:func:`~repro.serving.shard.grant`), or not at all.
  A grant that must wait holds nothing while it waits, so there is no
  lock order, and an uncontended read is one critical section to take
  and one to give back.
* The parse and decision caches are **lock-striped**
  (:class:`~repro.serving.shard.StripedCache`), keyed by text /
  fingerprint, so hot traffic on distinct queries does not serialise on
  one mutex.
* A coarse **schema lock** is held for read by every request and for
  write only by ``register``/``unregister`` — access-schema changes are
  rare and flush the decision + result caches wholesale.
* An answer is computed, admitted and filed under read holds on every
  table it depends on, and a batch files its invalidations under its
  table's write hold, so no answer can slip past a write that outdates
  it.

Result-cache admission is **admit-on-second-hit**: the first sighting
of a (fingerprint, options) key only registers it in the cache's
doorkeeper, so one-off ad-hoc or fuzz queries do not churn the cache;
a key seen twice is cached for real. A cached answer is always an exact
entry of this process: the cache starts empty, and a request that finds
nothing fresh under its own key is executed.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Union

from repro.distributed.peerset import PeerStats
from repro.engine.router import ExecutorRouter, RouterStats
from repro.errors import ServingError
from repro.sql import ast
from repro.sql.fingerprint import statement_fingerprint
from repro.serving.cache import CacheStats, ResultCache
from repro.serving.prepared import AdhocTemplates, PreparedBinding, PreparedQuery
from repro.serving.request import result_size
from repro.storage.mmapstore import StorageStats
from repro.serving.shard import (
    LockStats,
    Shard,
    ShardLock,
    ShardStats,
    StripedCache,
    grant,
    release,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.access.constraint import AccessConstraint
    from repro.beas.system import BEAS
    from repro.maintenance.incremental import UpdateBatch

#: Shard name for names that are no table. (A query with an empty
#: dependency set takes the schema hold alone.)
GLOBAL_SHARD = "__global__"

#: The cache geometry: parse-cache and decision-cache entries and lock
#: stripes, and the result cache's entry and byte budgets.
PARSE_CACHE_ENTRIES = 512
PARSE_STRIPES = 4
DECISION_CACHE_ENTRIES = 1024
DECISION_STRIPES = 8
RESULT_CACHE_ENTRIES = 512
RESULT_CACHE_BYTES = 8 << 20


@dataclass
class ServingStats:
    """Aggregated serving counters (``BEASServer.stats()``)."""

    parse: CacheStats
    decision: CacheStats
    result: CacheStats
    # ad-hoc templates: text-cache misses resolved by shape (hits) or by
    # a parse (misses), and the templates held
    adhoc: CacheStats = field(default_factory=lambda: CacheStats("template"))
    adhoc_templates: int = 0
    # what the result cache holds (read keys: the live entries' read-set
    # sizes, summed), the re-execution seconds its hits saved (the
    # measured cost of each entry a hit served), and
    # ``result.invalidations`` by cause
    result_entries: int = 0
    result_bytes: int = 0
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
    # engine-pool counters (None while no pool has started): requests on
    # this server dispatch bounded work to the BEAS instance's worker
    # processes when it was built with parallelism >= 2
    pool: Optional[PeerStats] = None
    # serving-fleet counters (None while no replica fleet has spawned):
    # covered bounded requests on this server are answered by the BEAS
    # instance's socket-connected read replicas when it was built with
    # replicas >= 2
    fleet: Optional[PeerStats] = None
    # learned-routing counters (routing="learned" requests): per-route
    # decisions, exploration rate, training observations
    routing: Optional[RouterStats] = None
    # persistent-storage counters (None while the BEAS instance runs the
    # in-memory engine): warm-start provenance, WAL traffic, checkpoints
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
            f"{self.result_bytes} bytes, "
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


class BEASServer:
    """The serving layer over one BEAS instance: prepared templates,
    locks, caches and maintenance (see module doc)."""

    def __init__(self, beas: "BEAS"):
        self._beas = beas
        #: the one condition every lock of this server shares
        self._cond = threading.Condition(threading.Lock())
        self._schema_lock = ShardLock("schema", self._cond)
        #: leaf mutex guarding prepared registry, request counters, and
        #: the observed schema generation
        self._admin_lock = threading.Lock()

        self.parse_cache = StripedCache(
            "parse", max_entries=PARSE_CACHE_ENTRIES, stripes=PARSE_STRIPES
        )
        self.decision_cache = StripedCache(
            "decision", max_entries=DECISION_CACHE_ENTRIES, stripes=DECISION_STRIPES
        )
        self.results = ResultCache(
            max_entries=RESULT_CACHE_ENTRIES,
            max_bytes=RESULT_CACHE_BYTES,
            sizeof=result_size,
        )
        # the global shard stands in for names that are no table
        shard_names = [table.schema.name for table in beas.database] + [GLOBAL_SHARD]
        self._shards = {name: Shard(name, self._cond) for name in shard_names}
        #: dependency set -> the locks a read of it is granted
        self._read_locks: dict[frozenset[str], tuple[ShardLock, ...]] = {}

        self._prepared: dict[str, PreparedQuery] = {}
        self._prepared_by_fingerprint: dict[str, PreparedQuery] = {}
        self.adhoc = AdhocTemplates(beas.database)
        #: executions, rebinds, rebind_fallbacks
        self._counts: Counter[str] = Counter()
        self._schema_generation = beas.catalog.schema_generation
        self._router = ExecutorRouter()

    # ------------------------------------------------------------------ #
    @property
    def beas(self) -> "BEAS":
        return self._beas

    @property
    def router(self) -> ExecutorRouter:
        """The learned executor router (consulted only by
        ``routing="learned"`` requests; always constructed so its state
        accumulates across routing-mode changes)."""
        return self._router

    @property
    def database(self):
        return self._beas.database

    def shard(self, table_name: str) -> Shard:
        """The shard a table maps to.

        Names that do not exist in the database map to the global shard
        instead of minting a permanent phantom shard — the request will
        fail with ``UnknownTableError`` downstream anyway.
        """
        shard = self._shards.get(table_name)
        if shard is None:
            if table_name not in self._beas.database:
                return self._shards[GLOBAL_SHARD]
            with self._admin_lock:
                shard = self._shards.get(table_name)
                if shard is None:  # table added after server construction
                    shard = self._shards[table_name] = Shard(table_name, self._cond)
        return shard

    def shards(self) -> dict[str, Shard]:
        """A snapshot of the shard map (inspection / tests)."""
        with self._admin_lock:
            return dict(self._shards)

    # ------------------------------------------------------------------ #
    # prepare
    # ------------------------------------------------------------------ #
    def prepare(self, sql: str, name: Optional[str] = None) -> PreparedQuery:
        """Parse/fingerprint once; returns the reusable prepared handle.

        Preparing the same text again returns the existing handle (under
        its existing name when ``name`` is not given).
        """
        bound, _ = self.frontend(sql)
        statement = bound.statement
        fingerprint = statement_fingerprint(statement)
        with self._admin_lock:
            existing = (
                self._prepared_by_fingerprint.get(fingerprint)
                if name is None
                else self._prepared.get(name)
            )
            if existing is not None and existing.fingerprint == fingerprint:
                return existing
            prepared = PreparedQuery(
                self, statement, sql, name,
                fingerprint=fingerprint, tables=bound.tables,
            )
            if prepared.name in self._prepared:
                raise ServingError(
                    f"a different query is already prepared as "
                    f"{prepared.name!r}"
                )
            self._prepared[prepared.name] = prepared
            # the handle a nameless prepare of this query returns: the
            # first one registered
            self._prepared_by_fingerprint.setdefault(fingerprint, prepared)
            return prepared

    def prepared(self, name: str) -> PreparedQuery:
        with self._admin_lock:
            try:
                return self._prepared[name]
            except KeyError:
                raise ServingError(f"no prepared query named {name!r}") from None

    def prepared_names(self) -> list[str]:
        with self._admin_lock:
            return sorted(self._prepared)

    # ------------------------------------------------------------------ #
    # what the stages use of the server
    # ------------------------------------------------------------------ #
    def count(self, name: str) -> None:
        with self._admin_lock:
            self._counts[name] += 1

    def read_locks(self, tables: frozenset[str]) -> tuple[ShardLock, ...]:
        """The schema lock and every dependency shard's: what one
        :func:`~repro.serving.shard.grant` takes for a read of
        ``tables``. Kept per dependency set once each name has its own
        shard (a name that is no table yet may be one later)."""
        locks = self._read_locks.get(tables)
        if locks is None:
            shards = {self.shard(name) for name in tables}
            locks = (self._schema_lock, *(shard.lock for shard in shards))
            if tables <= self._shards.keys():
                self._read_locks[tables] = locks
        return locks

    def schema_read(self):
        """A read hold on the schema lock alone (decision-only calls)."""
        return self._schema_lock.read()

    # ------------------------------------------------------------------ #
    # maintenance (per-shard write locks; disjoint tables run in parallel)
    # ------------------------------------------------------------------ #
    def insert(
        self, table_name: str, rows, *, adjust_bounds: bool = False
    ) -> "UpdateBatch":
        return self._maintain(
            table_name,
            lambda: self._beas.insert(
                table_name, rows, adjust_bounds=adjust_bounds
            ),
        )

    def delete(self, table_name: str, rows) -> "UpdateBatch":
        return self._maintain(
            table_name, lambda: self._beas.delete(table_name, rows)
        )

    def _maintain(self, table_name: str, apply) -> "UpdateBatch":
        self.observe_schema_generation()
        # raises UnknownTableError before any shard state is touched
        table = self._beas.database.table(table_name)
        shard = self.shard(table_name)
        reads = (self._schema_lock,)
        grant(reads, shard.lock)
        try:
            # under the write hold no answer on this table can be
            # admitted: whatever the batch outdates is filed by now
            results, before = self.results, table.version
            try:
                batch = apply()
            # beaslint: ok(except-discipline) - sweeps, then re-raises whatever it was
            except BaseException:
                # a refused (rolled-back) batch still moves
                # Table.version, and a failed one may have applied:
                # every answer on the table goes
                results.sweep(table_name, table.version, "refused or failed batch")
                raise
            else:
                results.apply_write(
                    table_name, before, table.version, batch.changed_keys
                )
            finally:
                shard.note_maintenance()
        finally:
            release(reads, shard.lock)
        # an ADJUST batch may have widened a bound (schema generation)
        self.observe_schema_generation()
        return batch

    def register(
        self, constraint: "AccessConstraint", *, validate: bool = True
    ) -> None:
        with self._schema_lock.write():
            self._beas.register(constraint, validate=validate)
        self.observe_schema_generation()

    def register_all(
        self, constraints, *, validate: bool = True
    ) -> None:
        """Register a batch under ONE schema write section: the checker
        and planner are rebuilt once, and the caches flush once instead
        of per constraint."""
        with self._schema_lock.write():
            self._beas.register_all(constraints, validate=validate)
        self.observe_schema_generation()

    def unregister(self, constraint_name: str) -> None:
        with self._schema_lock.write():
            self._beas.unregister(constraint_name)
        self.observe_schema_generation()

    # ------------------------------------------------------------------ #
    # stats
    # ------------------------------------------------------------------ #
    def stats(self) -> ServingStats:
        self.observe_schema_generation()
        shards = self.shards()
        # Two-phase counter read, ordered against a request's own bump
        # order so concurrent traffic can never tear the snapshot's
        # invariants. Within one request the order is: executions (admin)
        # -> result-cache hit/miss (cache) -> rebind counters (admin).
        # Monotonic counters stay consistent when each family is read in
        # the *reverse* of that order: the post-cache counters first
        # (anything they count already has its cache event), the cache
        # snapshot second, and the pre-cache counters last (anything the
        # snapshot counted already has its execution). A single
        # admin-lock block in either position reports torn totals — e.g.
        # rebinds > result misses.
        with self._admin_lock:
            counts = Counter(self._counts)
        result, held = self.results.snapshot()
        live_versions: dict[str, int] = {
            table.schema.name: table.version for table in self._beas.database
        }
        snapshots = {
            name: shard.snapshot(live_versions.get(name, 0))
            for name, shard in shards.items()
        }
        with self._admin_lock:
            executions = self._counts["executions"]
            prepared_count = len(self._prepared)
            generation = self._schema_generation
        return ServingStats(
            rebinds=counts["rebinds"],
            rebind_fallbacks=counts["rebind_fallbacks"],
            checker_runs=self._beas.checker_runs,
            parse=self.parse_cache.stats(),
            adhoc=self.adhoc.stats(),
            adhoc_templates=len(self.adhoc),
            decision=self.decision_cache.stats(),
            result=result,
            **held,
            prepared_queries=prepared_count,
            executions=executions,
            schema_generation=generation,
            table_versions=live_versions,
            shards=snapshots,
            schema_lock=replace(self._schema_lock.stats),
            pool=self._beas.pool_stats(),
            fleet=self._beas.fleet_stats(),
            routing=self._router.stats(),
            storage=self._beas.storage_stats(),
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def frontend(
        self, query: Union[str, ast.Statement]
    ) -> tuple[PreparedBinding, bool]:
        """The binding a text (or a parsed statement) stands for, and
        whether the exact text was in the parse cache. A new text of a
        known shape binds that shape's template to its own literals; only
        a new shape is parsed (:class:`~repro.serving.prepared.AdhocTemplates`)."""
        if not isinstance(query, str):
            return PreparedQuery(self, query, "").binding(), False
        bound: Optional[PreparedBinding] = self.parse_cache.get(query)
        if bound is not None:
            return bound, True
        bound = self.adhoc.binding(query)
        self.parse_cache.put(query, bound)
        return bound, False

    def observe_schema_generation(self) -> int:
        """Notice access-schema changes made around ``register``/
        ``unregister`` (bound adjustments, direct catalog calls) and
        flush whatever they stale. Returns the current generation."""
        generation = self._beas.catalog.schema_generation
        if generation == self._schema_generation:
            return generation
        with self._admin_lock:
            if generation == self._schema_generation:
                return generation
            self._schema_generation = generation
        # the decision cache is keyed by (fingerprint, generation) and the
        # result entries record their generation, so flushing here is a
        # memory measure, not a correctness one
        self.decision_cache.invalidate_all()
        self.results.flush("access-schema change")
        return generation

    def __repr__(self) -> str:
        return (
            f"BEASServer({self._beas.database.name}: "
            f"{len(self._prepared)} prepared, "
            f"{self._counts['executions']} served)"
        )
