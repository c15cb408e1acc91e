"""The BEAS system: one engine object over one database.

Ties the architecture of Fig. 1 together:

1. given an SQL query Q, the **BE Checker** decides whether Q is covered
   by the registered access schema; if so
2. the **BE Plan Generator** emits a bounded plan and the **BE Plan
   Executor** computes exact answers within the deduced bound;
3. otherwise the **BE Plan Optimizer** looks for a partially bounded plan,
   falling back to the host DBMS (the conventional engine) when none
   helps. With an explicit tuple budget, covered-but-over-budget queries
   can instead take the resource-bounded approximation route.

``BEAS`` is the engine — check, plan, evaluate, maintain — and holds the
serving state every read shares for the engine's whole life: the parse
cache (SQL text -> the binding of its shape's template), the decision
cache (the pinned BE Checker outcome per binding, or per binding shape
for a rebindable one, keyed with the access-schema generation), one
result cache (:class:`~repro.serving.cache.ResultCache`), the prepared
registry, the learned router, and the locks. Queries are served through
a :class:`~repro.beas.session.Session` over it, whose reads run the
stages of :mod:`repro.serving.request`::

    with Session(database) as session:
        session.register(AccessConstraint("call", ["pnum", "date"],
                                          ["recnum", "region"], 500))
        result = session.run("SELECT ...")
        print(result.mode, result.rows)

Concurrency: locking is partitioned by table. Each table has a
:class:`~repro.serving.shard.Shard` whose reader/writer lock guards its
rows and access indices, and a schema lock is held for read by every
request and batch and for write by ``register`` / ``unregister``. Every
lock shares one condition, and the holds a read (or a batch) needs are
granted together in one :func:`~repro.serving.shard.grant`, or not at
all, so there is no lock order. :meth:`BEAS.insert` / :meth:`BEAS.delete`
and the schema changes are the only writes above the catalog: each
takes its holds and files its invalidations under them, so no answer
can slip past a write that outdates it (``docs/invariants.md``,
"Result-cache validity"). Result-cache admission is admit-on-second-hit
for a BOUNDED answer and on first sight for one whose recompute scans
(PARTIAL, CONVENTIONAL), and a cached answer is always an exact entry
of this process.
"""

from __future__ import annotations

import ctypes
import functools
import shutil
import tempfile
import threading
import weakref
from collections import Counter
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.beas.session import Session
    from repro.bounded.approximation import ApproximateResult
    from repro.distributed.fleet import ReplicaFleet
    from repro.engine.executor import QueryResult

from repro.access.catalog import ASCatalog
from repro.access.constraint import AccessConstraint
from repro.access.schema import AccessSchema
from repro.config import ExecutionOptions
from repro.errors import BudgetExceededError
from repro.errors import ServingError
from repro.maintenance.incremental import (
    MaintenanceManager,
    UpdateBatch,
    ViolationPolicy,
)
from repro.serving import server as geometry
from repro.serving.cache import ResultCache
from repro.serving.prepared import AdhocTemplates, PreparedBinding, PreparedQuery
from repro.serving.server import GLOBAL_SHARD, ServingStats
from repro.serving.shard import Shard, ShardLock, StripedCache, grant, release
from repro.sql import ast
from repro.sql.fingerprint import statement_fingerprint
from repro.storage.database import Database
from repro.storage.heap import bulk_build
from repro.storage.mmapstore import MmapStore, StorageStats
from repro.engine.executor import ConventionalEngine
from repro.distributed.peerset import PeerStats
from repro.engine.pool import EnginePool
from repro.bounded.analyzer import PerformanceAnalysis, PerformanceAnalyzer
from repro.bounded.approximation import BoundedApproximator
from repro.bounded.coverage import BoundedEvaluabilityChecker, CoverageDecision
from repro.bounded.optimizer import BEPlanOptimizer
from repro.bounded.plan import BoundedPlan
from repro.bounded.rebind import Decision
from repro.engine.router import (
    LOCAL_ROUTES,
    ExecutorRouter,
    PlanRunner,
    allowed_routes,
)
from repro.beas.result import ExecutionMode


def _spawn_fleet(catalog: ASCatalog, options: ExecutionOptions) -> "ReplicaFleet":
    from repro.distributed.fleet import ReplicaFleet

    return ReplicaFleet(
        catalog, replicas=options.replicas, port_base=options.fleet_port_base
    )


class _LazyPeers:
    """A set of peer processes (the engine pool, the serving fleet),
    spawned by the first request routed to it.

    Lazy so that the (many) BEAS instances that never take a remote
    route start no processes. A failed spawn (fork refused, pipe limits,
    ports in use, ...) is remembered and not retried per request: the
    route falls back in-process — answers are never wrong, only slower —
    until :meth:`close` clears the failure.

    ``spawn`` must not hold the engine: the engine holds this, and is
    freed by reference counting alone.
    """

    def __init__(self, spawn: Callable[[], Any]):
        self._spawn = spawn
        self._lock = threading.Lock()
        self._live: Any = None
        self._spawn_failed = False

    def get(self) -> Any:
        """The live peers, spawning them if need be; ``None`` after a
        failed spawn."""
        live = self._live
        if live is None or live.closed:
            with self._lock:
                if self._spawn_failed:
                    return None
                live = self._live
                if live is None or live.closed:
                    try:
                        live = self._spawn()
                    except Exception:  # beaslint: ok(except-discipline) - any spawn failure (fork limits, pickling, ports in use, OS) degrades to in-process execution
                        self._spawn_failed = True
                        self._live = None
                        return None
                    # peers are daemonic, but close deterministically when
                    # their engine is collected (test suites build many)
                    weakref.finalize(self, live.close)
                    self._live = live
        return live

    def started(self) -> Any:
        """The live peers if some were spawned, else ``None`` — never
        spawns (inspection, stats, maintenance notifications)."""
        live = self._live
        return live if live is not None and not live.closed else None

    def close(self) -> None:
        with self._lock:
            live, self._live = self._live, None
            self._spawn_failed = False  # a later restart may retry
        if live is not None:
            try:
                live.close()
            # beaslint: ok(except-discipline) - half-spawned peers: close() is best effort on shutdown
            except Exception:  # pragma: no cover - half-spawned peers
                pass


@functools.lru_cache(maxsize=None)
def _malloc_trim() -> Optional[Callable[[int], int]]:
    """glibc's ``malloc_trim``, or ``None`` where the C library has none."""
    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError):
        return None


def _release_free_heap() -> None:
    """Return the C heap's free pages to the OS.

    glibc keeps the pages ``free()`` takes back mapped for the process
    to reuse: what an engine dropped earlier, a reopened store or evicted
    cache entries held stays in the footprint until the process allocates
    as much again. ``malloc_trim(0)`` releases them; where the C library
    has no such call this does nothing."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


class BEAS:
    """Bounded EvAluation of SQL — the full prototype: the engine and
    the serving state its Sessions share (see module doc)."""

    def __init__(
        self,
        database: Database,
        access_schema: Optional[AccessSchema] = None,
        *,
        require_exact_multiplicities: bool = False,
        executor: Optional[str] = None,
        rows_per_batch: Optional[int] = None,
        parallelism: Optional[int] = None,
        storage: Optional[str] = None,
        storage_dir: Optional[str] = None,
        replicas: Optional[int] = None,
        fleet_port_base: Optional[int] = None,
    ):
        """The keyword knobs are this engine's layer of the option
        chain (:class:`~repro.config.ExecutionOptions`): each one given
        wins over its ``BEAS_*`` variable, which wins over the default.
        They resolve once, into :attr:`options`, and are validated here:
        an invalid value raises :class:`~repro.errors.BEASError` before
        anything is built or spawned.

        ``executor`` is the bounded pipeline's default execution mode:
        ``"row"`` (tuple-at-a-time, the default) or ``"columnar"``
        (batch fetches into per-attribute columns, counted in batches of
        ``rows_per_batch`` rows, see :mod:`repro.engine.columnar`). Both
        return identical answers.
        Setting ``executor``, ``rows_per_batch`` or ``parallelism`` here
        pins ``routing="static"`` over an ambient ``BEAS_ROUTING``; a
        Session, Query or call may still set ``routing``.

        ``parallelism`` sets the bounded pipeline's worker-process count
        (:class:`~repro.engine.pool.EnginePool`): ``1`` is in-process,
        ``>= 2`` executes bounded plans on worker processes. Pooled
        answers are identical to in-process ones — the pool only escapes
        the GIL; any pool failure falls back to in-process execution.

        ``storage`` selects the storage engine: ``"memory"`` (the
        default, process-local) or ``"mmap"``, a historical name for the
        persistent store (:class:`~repro.storage.mmapstore.MmapStore`: a
        manifest and a write-ahead maintenance log). A reopen must be
        handed the base rows of the store's last checkpoint: it then
        builds the indices from them and replays the log (a warm start);
        any other rows cold-start. ``storage_dir`` names the store
        directory and requires ``"mmap"``; without one, an ``mmap``
        instance owns a temporary directory that :meth:`close` removes.

        ``replicas`` sets the distributed serving tier's replica count
        (:class:`~repro.distributed.fleet.ReplicaFleet`): ``1`` (the
        default) serves in-process, ``>= 2`` spawns socket-connected
        read replicas that each hold a shard of the access indices and
        answer covered bounded queries locally under version-vector
        consistency. Replica ``i`` listens on loopback port
        ``fleet_port_base + i``. Fleet answers are identical to
        in-process ones; any fleet failure falls back in-process."""
        #: this engine's resolved options: keywords > environment > defaults
        self.options = options = ExecutionOptions.resolve(
            ExecutionOptions(
                executor=executor,
                rows_per_batch=rows_per_batch,
                parallelism=parallelism,
                storage=storage,
                storage_dir=storage_dir,
                replicas=replicas,
                fleet_port_base=fleet_port_base,
            )
        )
        #: counts this engine open until close() (repro.storage.heap)
        self._held = bulk_build.hold(self)
        self.database = database
        self._store: Optional[MmapStore] = None
        #: the temporary store directory this engine made for itself
        self._temp_dir: Optional[str] = None
        if options.storage == "mmap":
            directory = options.storage_dir
            if directory is None:
                directory = self._temp_dir = tempfile.mkdtemp(
                    prefix="beas-store-"
                )
                # close() removes it; the finalizer covers an engine that
                # is collected unclosed, or written to after its close()
                weakref.finalize(
                    self, shutil.rmtree, directory, ignore_errors=True
                )
            store = MmapStore(directory)
            weakref.finalize(self, MmapStore.close, store)
            self._store = store
            # warm path: build a fresh catalog under the stored schema and
            # replay the WAL; any mismatch (different dataset, different
            # schema, unreadable manifest) cold-builds and checkpoints
            catalog = ASCatalog(database)
            if access_schema is not None:
                catalog.schema = AccessSchema(name=access_schema.name)
            if store.try_load(catalog, access_schema):
                self.catalog = catalog
            else:
                self.catalog = ASCatalog(database, access_schema)
                store.checkpoint(self.catalog)
        else:
            self.catalog = ASCatalog(database, access_schema)
        #: the Maintenance module, one per violation policy
        self._maintenance = {
            policy: MaintenanceManager(self.catalog, policy=policy)
            for policy in ViolationPolicy
        }
        self._require_exact = require_exact_multiplicities
        self._pool = _LazyPeers(functools.partial(EnginePool, options.parallelism))
        self._fleet = _LazyPeers(
            functools.partial(_spawn_fleet, self.catalog, options)
        )
        #: the BE Plan Executor: every bounded plan, covered or prefix,
        #: runs through ``runner.run_route`` (see repro.engine.router)
        self.runner = PlanRunner(
            self.catalog,
            rows_per_batch=options.rows_per_batch,
            pool=self._pool.get if options.parallelism >= 2 else None,
            fleet=self._fleet.get if options.replicas >= 2 else None,
        )
        #: the same executor's row pipeline under a tuple budget
        self._approximator = BoundedApproximator(self.catalog)
        self._checker_runs_base = 0
        self._host = ConventionalEngine(database)
        self._refresh_components()

        #: the one condition every lock of this engine shares
        self._cond = threading.Condition(threading.Lock())
        self._schema_lock = ShardLock("schema", self._cond)
        #: leaf mutex guarding the prepared registry, the shard map and
        #: the observed schema generation; no read takes it
        self._admin_lock = threading.Lock()
        self.parse_cache = StripedCache(
            "parse",
            max_entries=geometry.PARSE_CACHE_ENTRIES,
            stripes=geometry.PARSE_STRIPES,
        )
        self.decision_cache = StripedCache(
            "decision",
            max_entries=geometry.DECISION_CACHE_ENTRIES,
            stripes=geometry.DECISION_STRIPES,
        )
        self.results = ResultCache(max_bytes=geometry.RESULT_CACHE_BYTES)
        # the global shard stands in for names that are no table
        self._shards = {
            name: Shard(name, self._cond)
            for name in [table.schema.name for table in database] + [GLOBAL_SHARD]
        }
        #: dependency set -> the locks a read of it is granted
        self._read_locks: dict[frozenset[str], tuple[ShardLock, ...]] = {}
        self._prepared: dict[str, PreparedQuery] = {}
        self._prepared_by_fingerprint: dict[str, PreparedQuery] = {}
        self.adhoc = AdhocTemplates(database)
        #: rebinds, rebind_fallbacks, under their own leaf mutex (a read
        #: is counted by ``results.observe``, with its hit or miss)
        self._counts: Counter[str] = Counter()
        self._counts_mutex = threading.Lock()
        self._schema_generation = self.catalog.schema_generation
        #: the learned executor router (consulted only by
        #: ``routing="learned"`` requests; always built so its state
        #: accumulates across routing-mode changes)
        self.router = ExecutorRouter()

    def _refresh_components(self) -> None:
        """Rebuild planner-side objects after the access schema changes."""
        previous = getattr(self, "_checker", None)
        if previous is not None:
            # keep the lifetime run counter monotonic across rebuilds
            self._checker_runs_base += previous.check_count
        self._checker = BoundedEvaluabilityChecker(
            self.database.schema,
            self.catalog.schema,
            require_exact_multiplicities=self._require_exact,
        )
        self._optimizer = BEPlanOptimizer(self.catalog)

    # ------------------------------------------------------------------ #
    # the peers of the remote routes: engine pool and serving fleet
    # ------------------------------------------------------------------ #
    @property
    def pool(self) -> Optional[EnginePool]:
        """The engine pool, if one has been started (inspection only —
        the ``pool`` route starts it on demand)."""
        return self._pool.started()

    def pool_stats(self) -> Optional[PeerStats]:
        pool = self._pool.started()
        return pool.stats() if pool is not None else None

    @property
    def fleet(self) -> Optional["ReplicaFleet"]:
        """The serving fleet, if one has been spawned (inspection only —
        the ``fleet`` route spawns it on demand; maintenance only
        *notifies* a live fleet's delta tail, it never spawns one)."""
        return self._fleet.started()

    def fleet_stats(self) -> Optional[PeerStats]:
        fleet = self._fleet.started()
        return fleet.stats() if fleet is not None else None

    @property
    def store(self) -> Optional[MmapStore]:
        """The persistent store (``None`` under the memory engine)."""
        return self._store

    def storage_stats(self) -> Optional[StorageStats]:
        return self._store.stats() if self._store is not None else None

    @property
    def checker_runs(self) -> int:
        """Lifetime count of full BE Checker runs (parse/normalize +
        plan search) this instance has performed, across access-schema
        changes. The rebinding differential suite asserts that
        equal-arity plan rebinds never increase it."""
        return self._checker_runs_base + self._checker.check_count

    def close(self) -> None:
        """Shut down the engine pool's workers and the fleet's replicas,
        close the store and remove a store directory this engine made
        for itself (idempotent; a caller-supplied ``storage_dir`` is
        never removed), then, when no other engine is open, hand the heap
        the index builds froze back to the cycle collector
        (:mod:`repro.storage.heap`), and the C heap's free pages back to
        the OS.

        Safe to call any number of times, including when a lazy spawn
        previously failed — ``with BEAS(...)`` blocks must exit cleanly
        even after an environment-level fork failure.

        A later remote route transparently restarts its peers; they are
        daemonic either way, so an unclosed BEAS cannot outlive the
        interpreter.
        """
        self._pool.close()
        self._fleet.close()
        if self._store is not None:
            self._store.close()
        if self._temp_dir is not None:
            shutil.rmtree(self._temp_dir, ignore_errors=True)
        self._held()
        _release_free_heap()

    def __enter__(self) -> "BEAS":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # access schema management (under the schema write hold)
    # ------------------------------------------------------------------ #
    def register(self, constraint: AccessConstraint, *, validate: bool = True) -> None:
        """Register one access constraint and build its index."""
        self.register_all([constraint], validate=validate)

    def register_all(
        self, constraints: Sequence[AccessConstraint], *, validate: bool = True
    ) -> None:
        """Register a batch under ONE schema write hold: the checker and
        planner are rebuilt once, and the caches flush once instead of
        per constraint."""
        with self._schema_lock.write():
            for constraint in constraints:
                self.catalog.register(constraint, validate=validate)
            self._schema_changed()
        self.observe_schema_generation()

    def unregister(self, constraint_name: str) -> None:
        with self._schema_lock.write():
            self.catalog.unregister(constraint_name)
            self._schema_changed()
        self.observe_schema_generation()

    def _schema_changed(self) -> None:
        """Rebuild the planner side and checkpoint the store.

        Register/unregister build or drop whole indices — effects the
        WAL cannot replay — so the store records the new access schema
        in its manifest and starts an empty log."""
        self._refresh_components()
        if self._store is not None:
            self._store.checkpoint(self.catalog)

    # ------------------------------------------------------------------ #
    # the online services
    # ------------------------------------------------------------------ #
    def check(
        self, query: Union[str, ast.Statement], budget: Optional[int] = None
    ) -> CoverageDecision:
        """BE Checker: coverage + deduced bound, without executing.

        A not-covered decision also carries the BE Plan Optimizer's
        analysis (``decision.partial``), so whoever caches the decision
        caches the partially bounded plan — or its absence — with it, and
        :meth:`evaluate` never analyses."""
        decision = self._checker.check(query, budget)
        if not decision.covered:
            decision.partial = self._optimizer.analyze(query)
        return decision

    def explain(
        self,
        query: Union[str, ast.Statement],
        decision: Optional[Decision] = None,
    ) -> str:
        """What :meth:`Decision.explain` lists, then, not covered, the
        host plan of the whole query. ``decision`` is the query's own,
        already made: given one, nothing is checked again."""
        if decision is None:
            generation = self.catalog.schema_generation
            decision = Decision(self.check(query), "fresh", generation)
        if decision.covered:
            return decision.explain()
        return "\n".join(
            (decision.explain(), "host plan:", self._host.explain(query))
        )

    def evaluate(
        self,
        query: Union[str, ast.Statement, Callable[[], ast.Statement]],
        decision: Decision,
        options: "ExecutionOptions",
        *,
        route: Optional[str] = None,
    ) -> tuple[ExecutionMode, Union["QueryResult", "ApproximateResult"]]:
        """The one engine entry: answer ``query`` under the request's
        ``decision`` (:class:`~repro.bounded.rebind.Decision`) and the
        resolved ``options``, choosing the evaluation mode per paper §2.
        No serving cache is involved.

        ``query`` may be a zero-argument provider of the statement: only
        the conventional fallback needs the AST (a covered decision runs
        its pinned plan, a not-covered one its pinned ``partial``), so a
        prepared binding is substituted only then. A rebound decision
        runs the pinned plan (or partially bounded plan: prefix, then
        residual) with its constant vector; only a remote route, which
        ships the plan to a peer, builds its patched copy.

        The budget is the decision's (``decision.budget``): over it,
        a covered decision raises
        :class:`~repro.errors.BudgetExceededError` or, with
        ``approximate_over_budget``, takes the resource-bounded
        approximation route. ``route`` is the way the bounded plan (or a
        partially bounded plan's prefix) runs — the serving layer's
        ``route`` stage chose it; without one, the first of
        :func:`~repro.engine.router.allowed_routes`. Answers are
        route-independent.
        """
        plan, constants = decision.runs, decision.constants
        if route is None and plan is not None:
            route = allowed_routes(options, plan)[0]
        if decision.covered:
            budget = decision.budget
            if budget is not None and not decision.within_budget:
                if options.approximate_over_budget and isinstance(
                    plan, BoundedPlan
                ):
                    return ExecutionMode.APPROXIMATE, self._approximator.execute(
                        plan, budget, constants
                    )
                raise BudgetExceededError(decision.access_bound, budget)
            if constants is not None and route not in LOCAL_ROUTES:
                plan, constants = decision.plan, None
            return ExecutionMode.BOUNDED, self.runner.run_route(
                route, plan, constants
            )

        if plan is not None:
            # ``plan`` is the partially bounded plan; a rebound one's
            # prefix and residual run off ``constants``
            if constants is not None and route not in LOCAL_ROUTES:
                plan, constants = decision.coverage.partial, None
            return ExecutionMode.PARTIAL, self._optimizer.execute(
                plan,
                functools.partial(self.runner.run_route, route, constants=constants),
                constants,
            )
        if callable(query):
            query = query()
        return ExecutionMode.CONVENTIONAL, self._host.execute(query)

    # ------------------------------------------------------------------ #
    # the serving state: prepared templates, caches, locks, counters
    # ------------------------------------------------------------------ #
    def session(self) -> "Session":
        """The Session/Query/Decision/Result lifecycle over this
        instance (see :mod:`repro.beas.session`): how queries are run."""
        from repro.beas.session import Session

        return Session(beas=self)

    def shard(self, table_name: str) -> Shard:
        """The shard a table maps to.

        Names that do not exist in the database map to the global shard
        instead of minting a permanent phantom shard — the request will
        fail with ``UnknownTableError`` downstream anyway.
        """
        shard = self._shards.get(table_name)
        if shard is None:
            if table_name not in self.database:
                return self._shards[GLOBAL_SHARD]
            with self._admin_lock:
                shard = self._shards.get(table_name)
                if shard is None:  # table added after the engine was built
                    shard = self._shards[table_name] = Shard(table_name, self._cond)
        return shard

    def shards(self) -> dict[str, Shard]:
        """A snapshot of the shard map (inspection / tests)."""
        with self._admin_lock:
            return dict(self._shards)

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
            )  # fmt: skip
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

    def count(self, name: str) -> None:
        """Bump a rebind counter (``rebinds`` / ``rebind_fallbacks``)."""
        with self._counts_mutex:
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

    def observe_schema_generation(self) -> int:
        """Notice access-schema changes (a schema write, a bound
        adjustment, a direct catalog call) and flush whatever they stale.
        Returns the current generation."""
        generation = self.catalog.schema_generation
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

    def stats(self) -> ServingStats:
        """Serving counters, including plan-rebind and checker-run
        totals."""
        self.observe_schema_generation()
        shards = self.shards()
        # Counter read, ordered against a request's own bump order so
        # concurrent traffic can never tear the snapshot's invariants.
        # A read bumps ``executions`` and its result-cache hit or miss in
        # one section (``ResultCache.observe``), and only later, on a
        # rebound miss, a rebind counter. Monotonic counters stay
        # consistent when read in the reverse of that order: the rebind
        # counters first (any rebind they count already has its miss),
        # then the cache snapshot, which holds executions, hits and misses
        # together (hits + misses <= executions by construction). Reading
        # the rebind counters after the snapshot reports torn totals —
        # e.g. rebinds > result misses.
        with self._counts_mutex:
            counts = Counter(self._counts)
        result, held = self.results.snapshot()
        live_versions: dict[str, int] = {
            table.schema.name: table.version for table in self.database
        }
        snapshots = {
            name: shard.snapshot(live_versions.get(name, 0))
            for name, shard in shards.items()
        }
        with self._admin_lock:
            prepared_count = len(self._prepared)
            generation = self._schema_generation
        return ServingStats(
            rebinds=counts["rebinds"],
            rebind_fallbacks=counts["rebind_fallbacks"],
            checker_runs=self.checker_runs,
            parse=self.parse_cache.stats(),
            adhoc=self.adhoc.stats(),
            adhoc_templates=len(self.adhoc),
            decision=self.decision_cache.stats(),
            result=result,
            **held,
            prepared_queries=prepared_count,
            schema_generation=generation,
            table_versions=live_versions,
            shards=snapshots,
            schema_lock=replace(self._schema_lock.stats),
            pool=self.pool_stats(),
            fleet=self.fleet_stats(),
            routing=self.router.stats(),
            storage=self.storage_stats(),
        )

    # ------------------------------------------------------------------ #
    # data updates (incremental maintenance under the table's write hold)
    # ------------------------------------------------------------------ #
    def insert(
        self, table_name: str, rows, *, adjust_bounds: bool = False
    ) -> UpdateBatch:
        """Insert rows, updating every affected access index incrementally.

        With ``adjust_bounds=False`` (default) a batch that would violate a
        cardinality bound is rejected atomically; with ``True`` the
        violated constraint's N is widened instead (paper §3, Maintenance).
        """
        policy = (
            ViolationPolicy.ADJUST if adjust_bounds else ViolationPolicy.REJECT
        )
        return self._maintain("insert", table_name, rows, policy)

    def delete(self, table_name: str, rows) -> UpdateBatch:
        """Delete rows (bag semantics), keeping access indices exact."""
        return self._maintain("delete", table_name, rows, ViolationPolicy.REJECT)

    def _maintain(
        self, op: str, table_name: str, rows, policy: ViolationPolicy
    ) -> UpdateBatch:
        """Apply one batch under a schema read hold and its table's write
        hold (disjoint tables run in parallel), and drop the cached
        answers it outdates before any read can see the table again."""
        self.observe_schema_generation()
        # raises UnknownTableError before any shard state is touched
        table = self.database.table(table_name)
        shard = self.shard(table_name)
        reads = (self._schema_lock,)
        grant(reads, shard.lock)
        try:
            # under the write hold no answer on this table can be
            # admitted: whatever the batch outdates is filed by now
            results, before = self.results, table.version
            try:
                batch = self._apply(op, table_name, rows, policy)
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

    def _apply(
        self, op: str, table_name: str, rows, policy: ViolationPolicy
    ) -> UpdateBatch:
        """The batch itself, then what follows a committed one. The
        stored rows — never the caller's spelling of them, which need
        not decode — go as they are to the fleet's delta tail and to the
        WAL, which encodes only a batch marshal cannot hold as it is.

        Persistence discipline: the WAL record is appended only after
        the in-memory apply committed (a refused batch raised before
        this and logs nothing), under the write hold that serialises the
        maintenance itself.
        """
        # read before the apply, for the fleet's delta tail
        prev_version = self._version_of(table_name)
        manager = self._maintenance[policy]
        if op == "insert":
            batch, stored = manager.insert_returning(table_name, rows)
        else:
            batch, stored = manager.delete_returning(table_name, rows)
        fleet = self.fleet
        if stored and (fleet is not None or self._store is not None):
            table = self.database.table(table_name)
            if fleet is not None:
                fleet.note_maintenance(op, table, stored, prev_version)
            if self._store is not None:
                self._store.log_batch(op, table, stored)
        if self._store is not None and batch.inserted:
            for name in batch.adjusted_constraints:
                self._store.log_adjust(name, self.catalog.schema.get(name).n)
        return batch

    def _version_of(self, table_name: str) -> Optional[int]:
        """The table's version before a batch commits: a replica at
        exactly that version can catch up with the batch's delta instead
        of a full snapshot re-ship."""
        if self.fleet is None or table_name not in self.database:
            return None
        return self.database.table(table_name).version

    # ------------------------------------------------------------------ #
    def analyze_performance(
        self,
        query: Union[str, ast.Statement],
        decision: Union[Decision, CoverageDecision, None] = None,
    ) -> PerformanceAnalysis:
        """The Fig.-3 analysis panel for a covered query, under its
        ``decision`` (``Session.analyze`` passes the one its decide path
        made; without one, it is checked here). The bounded plan runs on
        the engine's executor, the comparison on its host engine."""
        analyzer = PerformanceAnalyzer(
            self.catalog,
            functools.partial(self.runner.run_route, self.options.executor),
            self._host,
        )
        return analyzer.analyze(query, decision or self.check(query))

    def host_engine(self) -> ConventionalEngine:
        """The conventional engine over the same data: the fallback for
        not-covered queries, and the baseline BEAS is compared against.
        Its table statistics — the equivalent of an offline ANALYZE —
        are kept per table version, so they are collected once per
        write, not on every comparison run."""
        return self._host
