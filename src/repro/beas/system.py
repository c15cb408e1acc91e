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

import shutil
import tempfile
import threading
import weakref
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

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
from repro.sql import ast
from repro.storage.database import Database
from repro.storage.mmapstore import MmapStore, StorageStats
from repro.engine.columnar import resolve_executor_mode, resolve_rows_per_batch
from repro.engine.executor import ConventionalEngine
from repro.engine.logical import explain as explain_logical
from repro.engine.pool import (
    EnginePool,
    PoolStats,
    resolve_dispatch,
    resolve_parallelism,
)
from repro.engine.profiles import EngineProfile, POSTGRESQL
from repro.bounded.analyzer import PerformanceAnalysis, PerformanceAnalyzer
from repro.bounded.approximation import BoundedApproximator
from repro.bounded.coverage import BoundedEvaluabilityChecker, CoverageDecision
from repro.bounded.executor import BoundedPlanExecutor
from repro.bounded.optimizer import BEPlanOptimizer
from repro.bounded.plan import BoundedPlan, explain_plan
from repro.beas.result import ExecutionMode


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
        parallel_dispatch: Optional[str] = None,
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
        ``>= 2`` executes bounded plans and column batches on worker
        processes; ``None`` defers to ``BEAS_PARALLELISM``, then to the
        host profile's ``parallelism``. ``parallel_dispatch`` picks the
        fan-out unit (``"plan"``, ``"batch"``, or the default
        ``"auto"``). Pooled answers are identical to in-process ones —
        the pool only escapes the GIL; any pool failure falls back to
        in-process execution. All engine options are validated here and
        raise :class:`~repro.errors.BEASError` when invalid.

        ``storage`` selects the storage engine: ``"memory"`` (the
        default, process-local) or ``"mmap"``
        (:class:`~repro.storage.mmapstore.MmapStore`: persisted index
        segments, a write-ahead maintenance log, result-cache
        persistence, and shared-memory pool snapshots); ``None`` defers
        to ``BEAS_STORAGE``. ``storage_dir`` names the store directory
        (``BEAS_STORAGE_DIR``); without one, an ``mmap`` instance owns a
        temporary directory removed when it is collected — useful for
        the shm snapshot wire, but obviously not a warm restart.

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
        if self.storage == "mmap":
            directory = (
                config.validate_storage_dir(storage_dir)
                if storage_dir is not None
                else config.env_storage_dir()
            )
            if directory is None:
                directory = tempfile.mkdtemp(prefix="beas-store-")
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
        self._require_exact = require_exact_multiplicities
        self._dedup_keys = dedup_keys
        self.executor = resolve_executor_mode(executor)
        # resolved (and validated) eagerly: a bad size fails construction
        # with a clear BEASError, and every executor this instance builds
        # later shares one pinned batch size even if the environment
        # default changes afterwards
        self._rows_per_batch = resolve_rows_per_batch(rows_per_batch)
        self.parallelism = resolve_parallelism(
            parallelism, default=host_profile.parallelism
        )
        self._parallel_dispatch = resolve_dispatch(parallel_dispatch)
        self._pool: Optional[EnginePool] = None
        self._pool_lock = threading.Lock()
        self._pool_spawn_error: Optional[BaseException] = None
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
        self._fleet: Optional["ReplicaFleet"] = None
        self._fleet_lock = threading.Lock()
        self._fleet_spawn_error: Optional[BaseException] = None
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
        self._executors = {
            self.executor: BoundedPlanExecutor(
                self.catalog,
                dedup_keys=self._dedup_keys,
                executor=self.executor,
                rows_per_batch=self._rows_per_batch,
                pool=self._pool_provider,
                dispatch=self._parallel_dispatch,
                fleet=self._fleet_provider,
            )
        }
        self._executor = self._executors[self.executor]
        self._optimizer = BEPlanOptimizer(
            self.catalog,
            self.host_profile,
            dedup_keys=self._dedup_keys,
            executor=self.executor,
            rows_per_batch=self._rows_per_batch,
            pool=self._pool_provider,
            dispatch=self._parallel_dispatch,
        )
        self._approximator = BoundedApproximator(self.catalog)

    # ------------------------------------------------------------------ #
    # the engine pool (parallel bounded execution)
    # ------------------------------------------------------------------ #
    def _pool_provider(self) -> Optional[EnginePool]:
        """The shared worker pool, created on first pooled execution.

        Lazy so that the (many) BEAS instances that never execute a
        bounded plan in parallel don't fork worker processes; ``None``
        when ``parallelism`` keeps execution in-process.
        """
        if self.parallelism < 2:
            return None
        pool = self._pool
        if pool is None or pool.closed:
            with self._pool_lock:
                if self._pool_spawn_error is not None:
                    # a previous spawn failed (fork refused, pipe limits,
                    # …): stay in-process instead of re-forking on every
                    # execution — answers are never wrong, only slower
                    return None
                pool = self._pool
                if pool is None or pool.closed:
                    try:
                        exporter = (
                            self._store.snapshot_exporter(self.catalog)
                            if self._store is not None
                            else None
                        )
                        pool = EnginePool(
                            self.parallelism, snapshot_exporter=exporter
                        )
                    except Exception as error:  # beaslint: ok(except-discipline) - any spawn failure (fork limits, pickling, OS) degrades to in-process execution
                        self._pool_spawn_error = error
                        self._pool = None
                        return None
                    self._pool = pool
                    # workers are daemonic, but close deterministically
                    # when this BEAS is collected (test suites build many)
                    weakref.finalize(self, EnginePool.close, pool)
        return pool

    @property
    def pool(self) -> Optional[EnginePool]:
        """The engine pool, if one has been started (inspection only —
        executions start it on demand)."""
        return self._pool

    def pool_stats(self) -> Optional[PoolStats]:
        pool = self._pool
        return pool.stats() if pool is not None and not pool.closed else None

    # ------------------------------------------------------------------ #
    # the serving fleet (distributed read replicas)
    # ------------------------------------------------------------------ #
    def _fleet_provider(self) -> Optional["ReplicaFleet"]:
        """The serving fleet, spawned on first covered bounded execute.

        Lazy for the same reason as :meth:`_pool_provider`; ``None``
        when ``replicas`` keeps serving in-process, or after a spawn
        failure (the coordinator keeps answering locally — answers are
        never wrong, only local).
        """
        if self.replicas < 2:
            return None
        fleet = self._fleet
        if fleet is None or fleet.closed:
            with self._fleet_lock:
                if self._fleet_spawn_error is not None:
                    return None
                fleet = self._fleet
                if fleet is None or fleet.closed:
                    from repro.distributed.fleet import ReplicaFleet

                    try:
                        fleet = ReplicaFleet(
                            self.catalog,
                            replicas=self.replicas,
                            port_base=self.fleet_port_base,
                        )
                    except Exception as error:  # beaslint: ok(except-discipline) - any spawn failure (fork limits, ports in use, OS) degrades to coordinator-local serving
                        self._fleet_spawn_error = error
                        self._fleet = None
                        return None
                    self._fleet = fleet
                    # replicas are daemonic, but close deterministically
                    # when this BEAS is collected (test suites build many)
                    weakref.finalize(self, ReplicaFleet.close, fleet)
        return fleet

    @property
    def fleet(self) -> Optional["ReplicaFleet"]:
        """The serving fleet, if one has been spawned (inspection only —
        executions spawn it on demand)."""
        return self._fleet

    def fleet_stats(self) -> Optional["FleetStats"]:
        fleet = self._fleet
        return (
            fleet.stats() if fleet is not None and not fleet.closed else None
        )

    def _fleet_for_maintenance(self) -> Optional["ReplicaFleet"]:
        """The live fleet, or ``None`` — maintenance only *notifies* an
        already-spawned fleet (its delta tail); it never spawns one."""
        fleet = self._fleet
        if fleet is None or fleet.closed:
            return None
        return fleet

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
        """Shut down the engine pool's worker processes (idempotent).

        Safe to call any number of times, including when the lazy pool
        spawn previously failed (``_pool_provider`` recorded the error
        and fell back in-process) — ``with BEAS(...)`` blocks must exit
        cleanly even after an environment-level fork failure.

        Subsequent pooled executions transparently restart the pool; the
        workers are daemonic either way, so an unclosed BEAS cannot
        outlive the interpreter.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
            self._pool_spawn_error = None  # a later restart may retry
        if pool is not None:
            try:
                pool.close()
            # beaslint: ok(except-discipline) - half-spawned pool: close() is best effort on shutdown
            except Exception:  # pragma: no cover - half-spawned pool
                pass
        with self._fleet_lock:
            fleet, self._fleet = self._fleet, None
            self._fleet_spawn_error = None  # a later restart may retry
        if fleet is not None:
            try:
                fleet.close()
            # beaslint: ok(except-discipline) - half-spawned fleet: close() is best effort on shutdown
            except Exception:  # pragma: no cover - half-spawned fleet
                pass
        if self._store is not None:
            server = self._server
            if server is not None:
                try:
                    server.persist_result_cache()
                # beaslint: ok(except-discipline) - cache persistence is best effort on shutdown; the store stays valid without it
                except Exception:  # pragma: no cover - defensive
                    pass
            self._store.close()

    def __enter__(self) -> "BEAS":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def bounded_executor(self, executor: Optional[str] = None) -> BoundedPlanExecutor:
        """The BE Plan Executor for one mode (instances are memoised).

        With ``executor=None`` the instance default applies. The serving
        layer uses this to honour a per-query mode override.
        """
        mode = self.executor if executor is None else resolve_executor_mode(executor)
        engine = self._executors.get(mode)
        if engine is None:
            engine = BoundedPlanExecutor(
                self.catalog,
                dedup_keys=self._dedup_keys,
                executor=mode,
                rows_per_batch=self._rows_per_batch,
                pool=self._pool_provider,
                dispatch=self._parallel_dispatch,
                fleet=self._fleet_provider,
            )
            self._executors[mode] = engine
        return engine

    #: How each learned route maps onto an executor build:
    #: (executor mode, pooled?, pinned dispatch).
    _ROUTE_SPECS = {
        "row": ("row", False, "auto"),
        "columnar": ("columnar", False, "auto"),
        "pooled-plan": ("columnar", True, "plan"),
        "pooled-batch": ("columnar", True, "batch"),
    }

    def routed_executor(self, route: str) -> BoundedPlanExecutor:
        """The BE Plan Executor for one learned *route* (memoised).

        Unlike :meth:`bounded_executor`, a route pins the whole engine
        shape — the pooled routes force their dispatch strategy and the
        serial routes never touch the pool — so the adaptive router can
        choose pooled-vs-local per query without disturbing the
        engine-pinned ``parallelism``/``parallel_dispatch`` options.
        """
        spec = self._ROUTE_SPECS.get(route)
        if spec is None:
            raise BEASError(
                f"unknown route {route!r} (expected one of "
                f"{', '.join(self._ROUTE_SPECS)})"
            )
        key = f"route:{route}"
        engine = self._executors.get(key)
        if engine is None:
            mode, pooled, dispatch = spec
            engine = BoundedPlanExecutor(
                self.catalog,
                dedup_keys=self._dedup_keys,
                executor=mode,
                rows_per_batch=self._rows_per_batch,
                pool=self._pool_provider if pooled else None,
                dispatch=dispatch,
            )
            self._executors[key] = engine
        return engine

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
        approximation route. ``options.executor`` picks the bounded
        execution mode; ``route`` (learned routing) pins the full engine
        shape for the covered branch instead — see
        :meth:`routed_executor`. Answers are mode-independent.
        """
        budget = options.budget
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
            engine = (
                self.routed_executor(route)
                if route is not None
                else self.bounded_executor(options.executor)
            )
            return ExecutionMode.BOUNDED, engine.execute(decision.plan)

        if options.allow_partial and decision.partial is not None:
            return ExecutionMode.PARTIAL, self._optimizer.execute(
                decision.partial, executor=options.executor
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
        from repro.maintenance.incremental import MaintenanceManager, ViolationPolicy

        rows = list(rows)  # any iterable is accepted; it is read once here
        policy = (
            ViolationPolicy.ADJUST if adjust_bounds else ViolationPolicy.REJECT
        )
        # for the fleet's delta tail: the table version *before* this
        # batch commits, so a replica at exactly that version can catch
        # up with the delta instead of a full snapshot re-ship
        fleet = self._fleet_for_maintenance()
        prev_version = (
            self.database.table(table_name).version
            if fleet is not None and table_name in self.database
            else None
        )
        manager = MaintenanceManager(self.catalog, policy=policy)
        batch = manager.insert(table_name, rows)
        if fleet is not None and batch.inserted:
            table = self.database.table(table_name)
            fleet.note_insert(
                table, table.rows[-batch.inserted:], prev_version
            )
        if self._store is not None and batch.inserted:
            # persistence discipline: the WAL record is appended only
            # after the in-memory apply committed (a REJECT rollback
            # logs nothing), under the same serving write section that
            # serialises the maintenance itself
            table = self.database.table(table_name)
            self._store.log_insert(table, table.rows[-batch.inserted:])
            for name in batch.adjusted_constraints:
                self._store.log_adjust(name, self.catalog.schema.get(name).n)
        # snapshot: host_engine() may add comparators concurrently
        for engine in list(self._host_engines.values()):
            engine.invalidate_statistics()
        return batch

    def delete(self, table_name: str, rows):
        """Delete rows (bag semantics), keeping access indices exact."""
        from repro.maintenance.incremental import MaintenanceManager

        # the batch is read again after the apply (fleet delta, WAL
        # record): an iterator would reach them exhausted
        rows = list(rows)
        fleet = self._fleet_for_maintenance()
        prev_version = (
            self.database.table(table_name).version
            if fleet is not None and table_name in self.database
            else None
        )
        manager = MaintenanceManager(self.catalog)
        batch = manager.delete(table_name, rows)
        if fleet is not None and batch.deleted:
            fleet.note_delete(
                self.database.table(table_name), rows, prev_version
            )
        if self._store is not None and batch.deleted:
            self._store.log_delete(self.database.table(table_name), rows)
        for engine in list(self._host_engines.values()):
            engine.invalidate_statistics()
        return batch

    # ------------------------------------------------------------------ #
    def analyze_performance(
        self,
        query: Union[str, ast.Statement],
        profiles: Optional[Sequence[EngineProfile]] = None,
    ) -> PerformanceAnalysis:
        """The Fig.-3 analysis panel for a covered query."""
        analyzer = PerformanceAnalyzer(
            self.catalog,
            dedup_keys=self._dedup_keys,
            executor=self.executor,
            rows_per_batch=self._rows_per_batch,
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
