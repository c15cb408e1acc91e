"""The BEAS system facade.

Ties the architecture of Fig. 1 together over one database:

1. given an SQL query Q, the **BE Checker** decides whether Q is covered
   by the registered access schema; if so
2. the **BE Plan Generator** emits a bounded plan and the **BE Plan
   Executor** computes exact answers within the deduced bound;
3. otherwise the **BE Plan Optimizer** looks for a partially bounded plan,
   falling back to the host DBMS (the conventional engine) when none
   helps. With an explicit tuple budget, covered-but-over-budget queries
   can instead take the resource-bounded approximation route.

``BEAS`` is the engine core — check, plan, evaluate, maintain. Queries
are served through a :class:`~repro.beas.session.Session` over it::

    with Session(database) as session:
        session.register(AccessConstraint("call", ["pnum", "date"],
                                          ["recnum", "region"], 500))
        result = session.run("SELECT ...")
        print(result.mode, result.rows)
"""

from __future__ import annotations

import functools
import shutil
import tempfile
import threading
import weakref
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.beas.session import ExecutionOptions, Session
    from repro.bounded.approximation import ApproximateResult
    from repro.distributed.fleet import FleetStats, ReplicaFleet
    from repro.engine.executor import QueryResult
    from repro.serving.server import BEASServer

from repro import config
from repro.access.catalog import ASCatalog
from repro.access.constraint import AccessConstraint
from repro.access.schema import AccessSchema
from repro.errors import BEASError, BudgetExceededError
from repro.maintenance.incremental import MaintenanceManager, ViolationPolicy
from repro.sql import ast
from repro.storage.database import Database
from repro.storage.mmapstore import MmapStore, StorageStats
from repro.engine.columnar import resolve_executor_mode, resolve_rows_per_batch
from repro.engine.executor import ConventionalEngine
from repro.engine.logical import explain as explain_logical
from repro.engine.pool import EnginePool, PoolStats, resolve_parallelism
from repro.engine.profiles import EngineProfile, POSTGRESQL
from repro.bounded.analyzer import PerformanceAnalysis, PerformanceAnalyzer
from repro.bounded.approximation import BoundedApproximator
from repro.bounded.coverage import BoundedEvaluabilityChecker, CoverageDecision
from repro.bounded.optimizer import BEPlanOptimizer
from repro.bounded.plan import BoundedPlan, explain_plan
from repro.engine.router import PlanRunner, allowed_routes
from repro.beas.result import ExecutionMode


class _LazyPeers:
    """A set of peer processes (the engine pool, the serving fleet),
    spawned by the first request routed to it.

    Lazy so that the (many) BEAS instances that never take a remote
    route start no processes. A failed spawn (fork refused, pipe limits,
    ports in use, ...) is remembered and not retried per request: the
    route falls back in-process — answers are never wrong, only slower —
    until :meth:`close` clears the error.
    """

    def __init__(self, spawn: Callable[[], Any]):
        self._spawn = spawn
        self._lock = threading.Lock()
        self._live: Any = None
        self._spawn_error: Optional[BaseException] = None

    def get(self) -> Any:
        """The live peers, spawning them if need be; ``None`` after a
        failed spawn."""
        live = self._live
        if live is None or live.closed:
            with self._lock:
                if self._spawn_error is not None:
                    return None
                live = self._live
                if live is None or live.closed:
                    try:
                        live = self._spawn()
                    except Exception as error:  # beaslint: ok(except-discipline) - any spawn failure (fork limits, pickling, ports in use, OS) degrades to in-process execution
                        self._spawn_error = error
                        self._live = None
                        return None
                    self._live = live
        return live

    def peek(self) -> Any:
        """The live peers if some were spawned, else ``None`` — never
        spawns (inspection, stats, maintenance notifications)."""
        live = self._live
        return live if live is not None and not live.closed else None

    def close(self) -> None:
        with self._lock:
            live, self._live = self._live, None
            self._spawn_error = None  # a later restart may retry
        if live is not None:
            try:
                live.close()
            # beaslint: ok(except-discipline) - half-spawned peers: close() is best effort on shutdown
            except Exception:  # pragma: no cover - half-spawned peers
                pass


class BEAS:
    """Bounded EvAluation of SQL — the full prototype."""

    def __init__(
        self,
        database: Database,
        access_schema: Optional[AccessSchema] = None,
        *,
        host_profile: EngineProfile = POSTGRESQL,
        require_exact_multiplicities: bool = False,
        dedup_keys: bool = False,
        executor: Optional[str] = None,
        rows_per_batch: Optional[int] = None,
        parallelism: Optional[int] = None,
        storage: Optional[str] = None,
        storage_dir: Optional[str] = None,
        replicas: Optional[int] = None,
        fleet_port_base: Optional[int] = None,
    ):
        """``executor`` selects the bounded pipeline's execution mode:
        ``"row"`` (tuple-at-a-time, the default) or ``"columnar"``
        (vectorised batches, see :mod:`repro.engine.columnar`); ``None``
        defers to the ``BEAS_EXECUTOR`` environment variable. Both modes
        return identical answers — the choice only trades execution
        strategy. ``rows_per_batch`` sizes columnar batches.

        ``parallelism`` sets the bounded pipeline's worker-process count
        (:class:`~repro.engine.pool.EnginePool`): ``1`` is in-process,
        ``>= 2`` executes bounded plans on worker processes; ``None``
        defers to ``BEAS_PARALLELISM``. Pooled answers are identical to
        in-process ones — the pool only escapes the GIL; any pool failure
        falls back to in-process execution. All engine options are
        validated here and raise :class:`~repro.errors.BEASError` when
        invalid.

        ``storage`` selects the storage engine: ``"memory"`` (the
        default, process-local) or ``"mmap"``
        (:class:`~repro.storage.mmapstore.MmapStore`: persisted index
        segments, a write-ahead maintenance log, result-cache
        persistence, and shared-memory pool snapshots); ``None`` defers
        to ``BEAS_STORAGE``. ``storage_dir`` names the store directory
        (``BEAS_STORAGE_DIR``); without one, an ``mmap`` instance owns a
        temporary directory that :meth:`close` removes — useful for the
        shm snapshot wire, but obviously not a warm restart.

        ``replicas`` sets the distributed serving tier's replica count
        (:class:`~repro.distributed.fleet.ReplicaFleet`): ``1`` (the
        default) serves in-process, ``>= 2`` spawns socket-connected
        read replicas that each hold a shard of the access indices and
        answer covered bounded queries locally under version-vector
        consistency; ``None`` defers to ``BEAS_REPLICAS``.
        ``fleet_port_base`` is the first replica's loopback TCP port
        (``BEAS_FLEET_PORT_BASE``). Fleet answers are identical to
        in-process ones; any fleet failure falls back in-process."""
        self.database = database
        self.host_profile = host_profile
        self.storage = (
            config.validate_storage(storage)
            if storage is not None
            else (config.env_storage() or "memory")
        )
        self._store: Optional[MmapStore] = None
        self.storage_dir: Optional[str] = None
        self._owns_storage_dir = False
        if self.storage == "mmap":
            directory = (
                config.validate_storage_dir(storage_dir)
                if storage_dir is not None
                else config.env_storage_dir()
            )
            if directory is None:
                directory = tempfile.mkdtemp(prefix="beas-store-")
                # close() removes it; the finalizer covers an engine that
                # is collected unclosed, or written to after its close()
                self._owns_storage_dir = True
                weakref.finalize(
                    self, shutil.rmtree, directory, ignore_errors=True
                )
            self.storage_dir = directory
            store = MmapStore(directory)
            weakref.finalize(self, MmapStore.close, store)
            self._store = store
            # warm path: install persisted segments into a fresh catalog
            # and replay the WAL tail; any mismatch (different dataset,
            # different schema, corruption) cold-rebuilds and checkpoints
            catalog = ASCatalog(database)
            if access_schema is not None:
                catalog.schema = AccessSchema(name=access_schema.name)
            if store.try_load(catalog, access_schema):
                self.catalog = catalog
            else:
                self.catalog = ASCatalog(database, access_schema)
                store.checkpoint(self.catalog)
        else:
            if storage_dir is not None:
                raise BEASError(
                    "storage_dir requires the mmap storage engine "
                    "(storage='mmap' or BEAS_STORAGE=mmap)"
                )
            self.catalog = ASCatalog(database, access_schema)
        #: the Maintenance module, one per violation policy
        self._maintenance = {
            policy: MaintenanceManager(self.catalog, policy=policy)
            for policy in ViolationPolicy
        }
        self._require_exact = require_exact_multiplicities
        self._dedup_keys = dedup_keys
        self.executor = resolve_executor_mode(executor)
        # resolved (and validated) eagerly: a bad size fails construction
        # with a clear BEASError, and every executor this instance builds
        # later shares one pinned batch size even if the environment
        # default changes afterwards
        self._rows_per_batch = resolve_rows_per_batch(rows_per_batch)
        self.parallelism = resolve_parallelism(parallelism)
        self._pool = _LazyPeers(self._spawn_pool)
        self.replicas = (
            config.validate_replicas(replicas)
            if replicas is not None
            else (config.env_replicas() or 1)
        )
        self.fleet_port_base = (
            config.validate_fleet_port_base(fleet_port_base)
            if fleet_port_base is not None
            else (
                config.env_fleet_port_base()
                or config.DEFAULT_FLEET_PORT_BASE
            )
        )
        self._fleet = _LazyPeers(self._spawn_fleet)
        #: the BE Plan Executor: every bounded plan, covered or prefix,
        #: runs through ``runner.run_route`` (see repro.engine.router)
        self.runner = PlanRunner(
            self.catalog,
            dedup_keys=self._dedup_keys,
            rows_per_batch=self._rows_per_batch,
            pool=self._pool.get if self.parallelism >= 2 else None,
            fleet=self._fleet.get if self.replicas >= 2 else None,
        )
        self._checker_runs_base = 0
        self._host = ConventionalEngine(database, host_profile)
        self._host_engines: dict[str, ConventionalEngine] = {
            host_profile.name: self._host
        }
        self._server: Optional["BEASServer"] = None
        self._serve_lock = threading.Lock()
        self._refresh_components()

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
        self._optimizer = BEPlanOptimizer(self.catalog, self.host_profile)
        self._approximator = BoundedApproximator(self.catalog)

    # ------------------------------------------------------------------ #
    # the peers of the remote routes: engine pool and serving fleet
    # ------------------------------------------------------------------ #
    def _spawn_pool(self) -> EnginePool:
        exporter = (
            self._store.snapshot_exporter(self.catalog)
            if self._store is not None
            else None
        )
        pool = EnginePool(self.parallelism, snapshot_exporter=exporter)
        # workers are daemonic, but close deterministically when this
        # BEAS is collected (test suites build many)
        weakref.finalize(self, EnginePool.close, pool)
        return pool

    def _spawn_fleet(self) -> "ReplicaFleet":
        from repro.distributed.fleet import ReplicaFleet

        fleet = ReplicaFleet(
            self.catalog,
            replicas=self.replicas,
            port_base=self.fleet_port_base,
        )
        weakref.finalize(self, ReplicaFleet.close, fleet)
        return fleet

    @property
    def pool(self) -> Optional[EnginePool]:
        """The engine pool, if one has been started (inspection only —
        the ``pool`` route starts it on demand)."""
        return self._pool.peek()

    def pool_stats(self) -> Optional[PoolStats]:
        pool = self._pool.peek()
        return pool.stats() if pool is not None else None

    @property
    def fleet(self) -> Optional["ReplicaFleet"]:
        """The serving fleet, if one has been spawned (inspection only —
        the ``fleet`` route spawns it on demand; maintenance only
        *notifies* a live fleet's delta tail, it never spawns one)."""
        return self._fleet.peek()

    def fleet_stats(self) -> Optional["FleetStats"]:
        fleet = self._fleet.peek()
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
        never removed).

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
            server = self._server
            if server is not None:
                try:
                    server.persist_result_cache()
                # beaslint: ok(except-discipline) - cache persistence is best effort on shutdown; the store stays valid without it
                except Exception:  # pragma: no cover - defensive
                    pass
            self._store.close()
        if self._owns_storage_dir:
            shutil.rmtree(self.storage_dir, ignore_errors=True)

    def __enter__(self) -> "BEAS":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # access schema management
    # ------------------------------------------------------------------ #
    def register(self, constraint: AccessConstraint, *, validate: bool = True) -> None:
        """Register one access constraint and build its index."""
        self.catalog.register(constraint, validate=validate)
        self._refresh_components()
        self._checkpoint_store()

    def register_all(
        self, constraints: Sequence[AccessConstraint], *, validate: bool = True
    ) -> None:
        for constraint in constraints:
            self.catalog.register(constraint, validate=validate)
        self._refresh_components()
        self._checkpoint_store()

    def unregister(self, constraint_name: str) -> None:
        self.catalog.unregister(constraint_name)
        self._refresh_components()
        self._checkpoint_store()

    def _checkpoint_store(self) -> None:
        """Persist a full checkpoint after a schema-level change.

        Register/unregister rebuild or drop whole segments — effects the
        WAL cannot replay — so the store rewrites its segments and
        manifest and resets the log."""
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

    def explain(self, query: Union[str, ast.Statement]) -> str:
        """Bounded plan listing when covered; otherwise the reasons, the
        partially bounded plan with its residual's logical plan (if a
        bounded prefix exists), and the host plan of the whole query."""
        decision = self.check(query)
        if decision.covered:
            return explain_plan(decision.plan)
        partial = decision.partial
        lines = [decision.describe()]
        if partial is not None:
            lines.append(partial.describe())
            lines.append(
                f"residual plan ({partial.temp_schema.name} sized at the "
                "prefix's deduced bound):"
            )
            lines.append(explain_logical(self._optimizer.residual_plan(partial)))
        lines.append("host plan:")
        lines.append(self._host.explain(query))
        return "\n".join(lines)

    def evaluate(
        self,
        query: Union[str, ast.Statement, Callable[[], ast.Statement]],
        decision: CoverageDecision,
        options: "ExecutionOptions",
        *,
        route: Optional[str] = None,
    ) -> tuple[ExecutionMode, Union["QueryResult", "ApproximateResult"]]:
        """The one engine entry: answer ``query`` under an already-made
        checker ``decision`` and the resolved ``options``, choosing the
        evaluation mode per paper §2. No serving cache is involved.

        ``query`` may be a zero-argument provider of the statement: only
        the conventional fallback needs the AST (a covered decision runs
        its pinned plan, a not-covered one its pinned ``partial``), so a
        prepared binding is substituted only then.

        A decision made without a budget carries ``within_budget=None``;
        under ``options.budget`` feasibility is derived from its access
        bound: over budget raises
        :class:`~repro.errors.BudgetExceededError` or, with
        ``approximate_over_budget``, takes the resource-bounded
        approximation route. ``route`` is the way the bounded plan (or a
        partially bounded plan's prefix) runs — the serving layer's
        ``route`` stage chose it; without one, the first of
        :func:`~repro.engine.router.allowed_routes`. Answers are
        route-independent.
        """
        budget = options.budget
        plan = decision.plan if decision.covered else decision.partial
        if route is None and plan is not None:
            route = allowed_routes(options, self, plan)[0]
        if decision.covered:
            within_budget = decision.within_budget
            if within_budget is None and budget is not None:
                within_budget = decision.access_bound <= budget
            if budget is not None and not within_budget:
                if options.approximate_over_budget and isinstance(
                    decision.plan, BoundedPlan
                ):
                    return ExecutionMode.APPROXIMATE, self._approximator.execute(
                        decision.plan, budget
                    )
                raise BudgetExceededError(decision.access_bound, budget)
            return ExecutionMode.BOUNDED, self.runner.run_route(
                route, decision.plan
            )

        if options.allow_partial and decision.partial is not None:
            return ExecutionMode.PARTIAL, self._optimizer.execute(
                decision.partial,
                functools.partial(self.runner.run_route, route),
            )
        if callable(query):
            query = query()
        return ExecutionMode.CONVENTIONAL, self._host.execute(query)

    # ------------------------------------------------------------------ #
    # the serving layer (prepared queries + maintenance-aware caches)
    # ------------------------------------------------------------------ #
    def session(self, **server_options) -> "Session":
        """The Session/Query/Decision/Result lifecycle over this
        instance (see :mod:`repro.beas.session`): how queries are run.

        ``server_options`` are forwarded to the shared serving backend
        (:class:`~repro.serving.server.BEASServer`) when it is first
        built."""
        from repro.beas.session import Session

        return Session(beas=self, server_options=server_options or None)

    def _serve(
        self, options: Optional["ExecutionOptions"] = None, **cache_options
    ) -> "BEASServer":
        """The memoised serving backend: every Session over this engine
        shares one (one set of shard locks and caches per engine), built
        by the first with its resolved ``options`` as the base layer."""
        with self._serve_lock:
            if self._server is None:
                from repro.serving.server import BEASServer

                self._server = BEASServer(self, options, **cache_options)
            elif cache_options:
                raise ValueError(
                    "the serving layer is already built; pass server "
                    "options to the first Session over this engine"
                )
            elif options is not None and options != self._server.options:
                raise BEASError(
                    "this engine's serving layer was built by a Session "
                    f"with {self._server.options.describe()}; a second "
                    f"Session cannot rebase it to {options.describe()} — "
                    "set the difference per Query or per call"
                )
            return self._server

    # ------------------------------------------------------------------ #
    # data updates (routed through incremental maintenance)
    # ------------------------------------------------------------------ #
    def insert(self, table_name: str, rows, *, adjust_bounds: bool = False):
        """Insert rows, updating every affected access index incrementally.

        With ``adjust_bounds=False`` (default) a batch that would violate a
        cardinality bound is rejected atomically; with ``True`` the
        violated constraint's N is widened instead (paper §3, Maintenance).
        """
        policy = (
            ViolationPolicy.ADJUST if adjust_bounds else ViolationPolicy.REJECT
        )
        # read before the apply, for the fleet's delta tail
        prev_version = self._version_of(table_name)
        batch, stored = self._maintenance[policy].insert_returning(
            table_name, rows
        )
        self._record_batch("insert", table_name, stored, prev_version)
        if self._store is not None and batch.inserted:
            for name in batch.adjusted_constraints:
                self._store.log_adjust(name, self.catalog.schema.get(name).n)
        return batch

    def delete(self, table_name: str, rows):
        """Delete rows (bag semantics), keeping access indices exact."""
        prev_version = self._version_of(table_name)
        batch, removed = self._maintenance[
            ViolationPolicy.REJECT
        ].delete_returning(table_name, rows)
        self._record_batch("delete", table_name, removed, prev_version)
        return batch

    def _version_of(self, table_name: str) -> Optional[int]:
        """The table's version before a batch commits: a replica at
        exactly that version can catch up with the batch's delta instead
        of a full snapshot re-ship."""
        if self.fleet is None or table_name not in self.database:
            return None
        return self.database.table(table_name).version

    def _record_batch(
        self, op: str, table_name: str, rows: list, prev_version: Optional[int]
    ) -> None:
        """What follows a committed batch. ``rows`` are the stored rows —
        never the caller's spelling of them, which need not decode — and
        go as they are to the fleet's delta tail and to the WAL, which
        encodes only a batch JSON cannot hold as it is.

        Persistence discipline: the WAL record is appended only after
        the in-memory apply committed (a refused batch raised before
        this and logs nothing), under the same serving write section
        that serialises the maintenance itself.
        """
        fleet = self.fleet
        if rows and (fleet is not None or self._store is not None):
            table = self.database.table(table_name)
            if fleet is not None:
                fleet.note_maintenance(op, table, rows, prev_version)
            if self._store is not None:
                self._store.log_batch(op, table, rows)
        # snapshot: host_engine() may add comparators concurrently
        for engine in list(self._host_engines.values()):
            engine.invalidate_statistics()

    # ------------------------------------------------------------------ #
    def analyze_performance(
        self,
        query: Union[str, ast.Statement],
        profiles: Optional[Sequence[EngineProfile]] = None,
    ) -> PerformanceAnalysis:
        """The Fig.-3 analysis panel for a covered query."""
        analyzer = PerformanceAnalyzer(
            self.catalog,
            functools.partial(self.runner.run_route, self.executor),
        )
        if profiles is None:
            return analyzer.analyze(query)
        return analyzer.analyze(query, profiles)

    def host_engine(self, profile: Optional[EngineProfile] = None) -> ConventionalEngine:
        """A conventional engine over the same data (comparator access).

        Engines are cached per profile so table statistics — the
        equivalent of an offline ANALYZE — are collected once, not on
        every comparison run.
        """
        if profile is None:
            return self._host
        engine = self._host_engines.get(profile.name)
        if engine is None or engine.profile is not profile:
            engine = ConventionalEngine(self.database, profile)
            self._host_engines[profile.name] = engine
        return engine
