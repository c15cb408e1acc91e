"""The unified public API: ``Session`` / ``Query`` / ``Decision`` / ``Result``.

BEAS's value (§3 of the paper) is that a query is *decided once* against
the access schema and then executed within bounds many times. This
module is that lifecycle, and the only way to run a query::

    with Session(database, access_schema) as session:
        q = session.query(
            "SELECT region FROM call WHERE pnum = '100' AND date = 'd'")
        decision = q.bind(date="2016-06-01").decide()
        print(decision.verdict, decision.access_bound, decision.provenance)
        result = decision.run()
        print(result.rows, result.metrics.tuples_fetched)

        # one template, many bindings: the plan pinned above is REBOUND
        # for every later equal-arity binding — zero BE Checker runs
        for day in days:
            r = q.bind(date=day).run()

* :class:`Session` — context-managed facade over one
  :class:`~repro.beas.system.BEAS` engine plus the sharded serving
  backend (parse/decision/result caches, per-table locks, maintenance).
* :class:`Query` — an immutable handle for one prepared template;
  ``bind`` produces a new handle for a concrete binding, ``decide``
  pins (or rebinds) the coverage decision, ``run`` executes.
* :class:`Decision` — the unified checker outcome: boundedness verdict,
  pinned plan, deduced bounds, budget feasibility, and **cache
  provenance** (``fresh`` | ``cached`` | ``rebound``).
* :class:`Result` — rows + schema + :class:`ExecutionMetrics`
  (executor/pool/lock counters) + the decision that produced them.
* :class:`ExecutionOptions` — every execution knob in one validated
  dataclass, resolved through a single precedence chain:
  **call > Query > Session > environment** (the ``BEAS_*`` variables,
  read by :mod:`repro.config`).

The engine-level knobs (``rows_per_batch``, ``parallelism``, ``storage``,
``replicas``, ...) are pinned when the Session builds its engine;
supplying a *different* value at Query or call level raises
:class:`~repro.errors.BEASError` rather than being silently ignored.
``executor`` may be overridden per Query or per call (answers are
mode-independent).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence, Union

from repro import config
from repro.access.constraint import AccessConstraint
from repro.access.schema import AccessSchema
from repro.beas.result import ExecutionMode
from repro.beas.system import BEAS
from repro.bounded.coverage import CoverageDecision
from repro.bounded.plan import AnyBoundedPlan, explain_plan
from repro.engine.metrics import ExecutionMetrics
from repro.engine.profiles import EngineProfile, POSTGRESQL
from repro.errors import BEASError
from repro.storage.database import Database

if TYPE_CHECKING:  # pragma: no cover
    from repro.bounded.approximation import ApproximateResult
    from repro.serving.async_server import AsyncBEASServer
    from repro.serving.params import ParameterSlot
    from repro.serving.prepared import PreparedQuery
    from repro.serving.server import BEASServer, ServingStats

#: Engine-level fields fixed when the Session builds its BEAS engine.
_ENGINE_PINNED = (
    "rows_per_batch",
    "parallelism",
    "storage",
    "storage_dir",
    "replicas",
    "fleet_port_base",
)


# --------------------------------------------------------------------------- #
# options
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExecutionOptions:
    """Every execution knob, validated at construction.

    ``None`` means "inherit from the next layer down" in the precedence
    chain (call > Query > Session > environment). See
    the module docstring for which fields are engine-pinned.
    """

    executor: Optional[str] = None  # "row" | "columnar"
    rows_per_batch: Optional[int] = None
    parallelism: Optional[int] = None
    budget: Optional[int] = None  # tuple budget (None = unbounded)
    allow_partial: Optional[bool] = None
    approximate_over_budget: Optional[bool] = None
    use_result_cache: Optional[bool] = None
    result_reuse: Optional[str] = None  # "exact" | "subsume"
    routing: Optional[str] = None  # "static" | "learned"
    storage: Optional[str] = None  # "memory" | "mmap"
    storage_dir: Optional[str] = None  # store directory (mmap only)
    replicas: Optional[int] = None  # serving replicas (>= 2 = fleet)
    fleet_port_base: Optional[int] = None  # first replica TCP port

    def __post_init__(self) -> None:
        if self.executor is not None:
            config.validate_executor(self.executor)
        if self.storage is not None:
            config.validate_storage(self.storage)
        if self.storage_dir is not None:
            config.validate_storage_dir(self.storage_dir)
        if self.result_reuse is not None:
            config.validate_result_reuse(self.result_reuse)
        if self.routing is not None:
            config.validate_routing(self.routing)
        if self.rows_per_batch is not None:
            config.validate_rows_per_batch(self.rows_per_batch)
        if self.parallelism is not None:
            config.validate_parallelism(self.parallelism)
        if self.replicas is not None:
            config.validate_replicas(self.replicas)
        if self.fleet_port_base is not None:
            config.validate_fleet_port_base(self.fleet_port_base)
        if self.budget is not None:
            if not isinstance(self.budget, int) or isinstance(self.budget, bool):
                raise BEASError(
                    f"budget must be an int, got {type(self.budget).__name__}"
                )
            if self.budget < 0:
                raise BEASError(f"budget must be >= 0, got {self.budget}")
        for name in ("allow_partial", "approximate_over_budget", "use_result_cache"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, bool):
                raise BEASError(f"{name} must be a bool, got {value!r}")

    # ------------------------------------------------------------------ #
    def over(self, base: Optional["ExecutionOptions"]) -> "ExecutionOptions":
        """This layer merged over ``base``: set fields win, ``None``
        fields inherit."""
        if base is None:
            return self
        merged = {
            field.name: (
                getattr(self, field.name)
                if getattr(self, field.name) is not None
                else getattr(base, field.name)
            )
            for field in dataclasses.fields(self)
        }
        return ExecutionOptions(**merged)

    def replace(self, **fields) -> "ExecutionOptions":
        return dataclasses.replace(self, **fields)

    def refine(
        self, *layers: Optional["ExecutionOptions"]
    ) -> "ExecutionOptions":
        """This fully resolved base with ``layers`` applied lowest first
        (Query, then call) — the engine-pinned fields guarded against
        silent divergence."""
        resolved = self
        for layer in layers:
            if layer is None:
                continue
            for name in _ENGINE_PINNED:
                wanted = getattr(layer, name)
                if wanted is not None and wanted != getattr(resolved, name):
                    raise BEASError(
                        f"{name}={wanted!r} cannot be overridden per query "
                        f"or per call (the Session's engine is pinned to "
                        f"{name}={getattr(resolved, name)!r}); set it on the "
                        "Session or the environment"
                    )
            pinned = layer.executor is not None and layer.routing is None
            resolved = layer.over(resolved)
            if pinned and resolved.routing == "learned":
                # an explicit executor at this layer pins the mode:
                # routing inherited from a lower layer (e.g. ambient
                # BEAS_ROUTING=learned) must not reroute it — setting
                # routing alongside the executor re-enables the router
                resolved = resolved.replace(routing="static")
        return resolved

    @staticmethod
    def of_engine(beas: BEAS) -> "ExecutionOptions":
        """The resolved options of a built engine: its pinned knobs,
        then the environment for the engine-independent fields (e.g.
        ``BEAS_RESULT_REUSE``), then the built-in defaults."""
        return (
            ExecutionOptions(
                executor=beas.executor,
                rows_per_batch=beas._rows_per_batch,
                parallelism=beas.parallelism,
                storage=beas.storage,
                storage_dir=beas.storage_dir,
                replicas=beas.replicas,
                fleet_port_base=beas.fleet_port_base,
            )
            .over(ExecutionOptions.from_environment())
            .over(ExecutionOptions.defaults())
        )

    @staticmethod
    def from_environment() -> "ExecutionOptions":
        """The environment layer (``BEAS_*``, via :mod:`repro.config`)."""
        return ExecutionOptions(
            executor=config.env_executor(),
            rows_per_batch=config.env_rows_per_batch(),
            parallelism=config.env_parallelism(),
            result_reuse=config.env_result_reuse(),
            routing=config.env_routing(),
            storage=config.env_storage(),
            storage_dir=config.env_storage_dir(),
            replicas=config.env_replicas(),
            fleet_port_base=config.env_fleet_port_base(),
        )

    @staticmethod
    def defaults() -> "ExecutionOptions":
        """The bottom of the chain: every field concrete."""
        return ExecutionOptions(
            executor="row",
            rows_per_batch=config.DEFAULT_ROWS_PER_BATCH,
            parallelism=1,
            budget=None,
            allow_partial=True,
            approximate_over_budget=False,
            use_result_cache=True,
            result_reuse="exact",
            routing="static",
            storage="memory",
            storage_dir=None,  # mmap without a dir owns a temp directory
            replicas=1,
            fleet_port_base=config.DEFAULT_FLEET_PORT_BASE,
        )

    def describe(self) -> str:
        pairs = ", ".join(
            f"{field.name}={getattr(self, field.name)!r}"
            for field in dataclasses.fields(self)
            if getattr(self, field.name) is not None
        )
        return f"ExecutionOptions({pairs or 'inherit all'})"


def options_layer(
    options: Optional[ExecutionOptions], fields: Mapping[str, Any]
) -> Optional[ExecutionOptions]:
    """Combine an options object and/or loose keyword fields into one
    layer (keywords win over the object's fields)."""
    if fields:
        layer = ExecutionOptions(**fields)
        return layer.over(options) if options is not None else layer
    return options


# --------------------------------------------------------------------------- #
# results
# --------------------------------------------------------------------------- #
@dataclass
class Result:
    """The unified execution outcome: rows, schema, metrics, provenance.

    What the engine produced, the :class:`Decision` that drove it and
    the fully resolved :class:`ExecutionOptions` the run used — one
    shape for bounded, partially bounded, conventional and approximate
    answers, cached or computed, row or columnar, pooled or in-process.
    Built once per request by the serving layer's last stage
    (:mod:`repro.serving.request`).
    """

    columns: list[str]
    rows: list[tuple]
    mode: ExecutionMode
    metrics: ExecutionMetrics
    decision: "Decision"
    options: ExecutionOptions
    approximation: Optional["ApproximateResult"] = None

    @property
    def schema(self) -> tuple[str, ...]:
        """The output schema (column names, in order)."""
        return tuple(self.columns)

    @property
    def served_from_cache(self) -> bool:
        return self.metrics.served_from_cache

    def to_set(self) -> set[tuple]:
        return set(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def describe(self) -> str:
        summary = (
            f"{len(self.rows)} rows via {self.mode.value} evaluation in "
            f"{self.metrics.seconds * 1000:.2f} ms "
            f"(fetched {self.metrics.tuples_fetched}, "
            f"scanned {self.metrics.tuples_scanned} tuples; "
            f"decision {self.decision.provenance})"
        )
        if self.approximation is not None:
            summary += f"; {self.approximation.describe()}"
        return summary


# --------------------------------------------------------------------------- #
# decisions
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Decision:
    """The unified BE Checker outcome for one bound query.

    Carries the boundedness verdict, the pinned plan and deduced
    bounds, budget feasibility, and how the decision was obtained
    (``provenance``): ``"fresh"`` — a full checker run; ``"cached"`` —
    an exact decision-cache hit for this binding; ``"rebound"`` — a
    pinned plan patched for this binding's constants without any
    checker run (constraint-preserving rebinding,
    :mod:`repro.bounded.rebind`); ``"result-cache"`` — the rows came
    straight from the result cache; ``"subsumed"`` — the rows were
    re-filtered from a cached bounded superset
    (:mod:`repro.bounded.subsume`, ``result_reuse="subsume"``).
    """

    coverage: CoverageDecision
    provenance: str
    generation: int  # access-schema generation the decision was made under
    query: Optional["Query"] = None
    #: the tuple budget this decision was evaluated against (None = no
    #: budget); ``run()`` defaults to it, so an over-budget verdict is
    #: never silently executed unbounded
    budget: Optional[int] = None

    # ------------------------------------------------------------------ #
    @property
    def covered(self) -> bool:
        return self.coverage.covered

    @property
    def verdict(self) -> str:
        """``"bounded"`` when a bounded plan exists, else
        ``"not-covered"`` (execution falls back per §2)."""
        return "bounded" if self.coverage.covered else "not-covered"

    @property
    def plan(self) -> Optional[AnyBoundedPlan]:
        return self.coverage.plan

    @property
    def access_bound(self) -> Optional[int]:
        return self.coverage.access_bound

    @property
    def tight_access_bound(self) -> Optional[int]:
        return self.coverage.tight_access_bound

    @property
    def bag_exact(self) -> bool:
        return self.coverage.bag_exact

    @property
    def within_budget(self) -> Optional[bool]:
        return self.coverage.within_budget

    @property
    def reasons(self) -> list[str]:
        return self.coverage.reasons

    @property
    def constraints_used(self) -> list[AccessConstraint]:
        return self.coverage.constraints_used

    # ------------------------------------------------------------------ #
    def run(
        self,
        *,
        options: Optional[ExecutionOptions] = None,
        **fields,
    ) -> Result:
        """Execute under this (pinned) decision.

        Runs the bound query through the serving caches: the decision
        pinned here is an exact cache hit, so no BE Checker work is
        repeated — decide once, run many. The budget the decision was
        evaluated against carries over unless the call layer overrides
        it, so ``decide(budget=...)`` → ``run()`` enforces the budget
        (raising :class:`~repro.errors.BudgetExceededError` or taking
        the approximation route) instead of silently running unbounded.
        """
        if self.query is None:
            raise BEASError(
                "this Decision is not attached to a Query handle; "
                "use session.query(...).decide()"
            )
        if (
            self.budget is not None
            and "budget" not in fields
            and (options is None or options.budget is None)
        ):
            fields["budget"] = self.budget
        return self.query.run(options=options, **fields)

    def explain(self) -> str:
        """The bounded plan listing (or the not-covered reasons)."""
        if self.coverage.covered and self.coverage.plan is not None:
            return explain_plan(self.coverage.plan)
        return self.coverage.describe()

    def describe(self) -> str:
        lines = [
            f"decision: {self.verdict} ({self.provenance}, "
            f"schema generation {self.generation})",
            self.coverage.describe(),
        ]
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# queries
# --------------------------------------------------------------------------- #
class Query:
    """An immutable handle for one prepared query template (+ binding).

    Created by :meth:`Session.query`; ``bind`` and ``with_options``
    return *new* handles, so one template can be shared across threads
    while each caller narrows its own binding and options.
    """

    def __init__(
        self,
        session: "Session",
        prepared: "PreparedQuery",
        params: Optional[Mapping[str, Any]] = None,
        options: Optional[ExecutionOptions] = None,
    ):
        self._session = session
        self._prepared = prepared
        self._params: dict[str, Any] = dict(params or {})
        self._options = options

    # ------------------------------------------------------------------ #
    @property
    def sql(self) -> str:
        return self._prepared.sql

    @property
    def name(self) -> str:
        return self._prepared.name

    @property
    def fingerprint(self) -> str:
        """The template's stable fingerprint (binding-independent)."""
        return self._prepared.fingerprint

    @property
    def tables(self) -> frozenset[str]:
        return self._prepared.tables

    @property
    def slots(self) -> dict[str, "ParameterSlot"]:
        """The template's parameterisable constant slots."""
        return self._prepared.slots

    @property
    def params(self) -> dict[str, Any]:
        """The current binding overrides (empty = template constants)."""
        return dict(self._params)

    @property
    def options(self) -> Optional[ExecutionOptions]:
        return self._options

    @property
    def session(self) -> "Session":
        return self._session

    # ------------------------------------------------------------------ #
    def bind(
        self, params: Optional[Mapping[str, Any]] = None, **kwargs: Any
    ) -> "Query":
        """A new handle with these overrides merged over the current ones.

        Keys may be fully qualified slot names (``{"call.date": d}``) or
        bare column names when unambiguous (``date=d``)."""
        merged = dict(self._params)
        merged.update(params or {})
        merged.update(kwargs)
        return Query(self._session, self._prepared, merged, self._options)

    def unbound(self) -> "Query":
        """A new handle back on the template's own constants."""
        return Query(self._session, self._prepared, None, self._options)

    def with_options(
        self, options: Optional[ExecutionOptions] = None, **fields
    ) -> "Query":
        """A new handle with an options layer merged over this one's."""
        layer = options_layer(options, fields)
        if layer is None:
            return self
        return Query(
            self._session, self._prepared, self._params, layer.over(self._options)
        )

    # ------------------------------------------------------------------ #
    def decide(self, budget: Optional[int] = None) -> Decision:
        """Pin (or rebind) the coverage decision for this binding.

        The first binding of each arity signature pays a full BE Checker
        run; later equal-signature bindings patch the pinned plan's
        constants directly (``provenance == "rebound"``) — no checker
        run. ``budget`` defaults to the resolved options' budget."""
        from repro.serving.request import Request, decide_only

        resolved = self._session.options.refine(self._options)
        if budget is not None:
            resolved = resolved.replace(budget=budget)
        return decide_only(
            self._session.server,
            Request(resolved, self._prepared, self._params or None, self),
        )

    def explain(self) -> str:
        """The bounded plan for this binding, or the fallback reasons."""
        decision = self.decide()
        if decision.covered:
            return decision.explain()
        return self._session.beas.explain(
            self._prepared.binding(self._params or None).statement
        )

    def run(
        self,
        *,
        options: Optional[ExecutionOptions] = None,
        **fields,
    ) -> Result:
        """Execute this binding through the serving caches.

        ``options``/keyword fields form the call layer of the precedence
        chain (e.g. ``run(budget=5000, executor="columnar")``)."""
        from repro.serving.request import Request

        resolved = self._session.options.refine(
            self._options, options_layer(options, fields)
        )
        return self._session.server.serve(
            Request(resolved, self._prepared, self._params or None, self)
        )

    __call__ = run

    def __repr__(self) -> str:
        bound = f", params={sorted(self._params)}" if self._params else ""
        return f"Query({self.name}{bound})"


# --------------------------------------------------------------------------- #
# sessions
# --------------------------------------------------------------------------- #
class Session:
    """Context-managed facade over one BEAS engine + serving backend.

    Build it over a database (the Session owns and closes the engine)::

        with Session(database, access_schema) as session:
            result = session.query(sql).run()

    or adopt an existing engine (``Session(beas=engine)`` or
    ``engine.session()``) — the engine's lifetime stays the caller's.

    One Session per process is the intended shape: its serving backend
    is sharded by table and thread-safe, so any number of client
    threads can ``query``/``run`` concurrently while maintenance
    (:meth:`insert`/:meth:`delete`) proceeds per table.
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        access_schema: Optional[AccessSchema] = None,
        *,
        beas: Optional[BEAS] = None,
        profile: EngineProfile = POSTGRESQL,
        options: Optional[ExecutionOptions] = None,
        dedup_keys: bool = False,
        require_exact_multiplicities: bool = False,
        server_options: Optional[Mapping[str, Any]] = None,
    ):
        if (database is None) == (beas is None):
            raise BEASError(
                "Session needs exactly one of `database` (it builds the "
                "engine) or `beas` (it adopts an existing engine)"
            )
        self._session_options = options
        self._server_options = dict(server_options or {})
        if beas is not None:
            if access_schema is not None:
                raise BEASError(
                    "pass access_schema only when the Session builds the "
                    "engine; an adopted BEAS already has its catalog"
                )
            self._beas = beas
            self._owns_engine = False
            # the engine's pinned knobs are the session layer's floor
            base = ExecutionOptions.of_engine(beas)
            self._check_engine_consistency(options, base)
            self._resolved_options = (
                options.over(base) if options is not None else base
            )
        else:
            # Session > environment > built-in defaults
            resolved = ExecutionOptions.from_environment().over(
                ExecutionOptions.defaults()
            )
            if options is not None:
                resolved = options.over(resolved)
            self._resolved_options = resolved
            self._beas = BEAS(
                database,
                access_schema,
                host_profile=profile,
                dedup_keys=dedup_keys,
                require_exact_multiplicities=require_exact_multiplicities,
                executor=resolved.executor,
                rows_per_batch=resolved.rows_per_batch,
                parallelism=resolved.parallelism,
                storage=resolved.storage,
                # an ambient BEAS_STORAGE_DIR without mmap mode is inert,
                # not an error — only mmap engines take a directory
                storage_dir=(
                    resolved.storage_dir
                    if resolved.storage == "mmap"
                    else None
                ),
                replicas=resolved.replicas,
                fleet_port_base=resolved.fleet_port_base,
            )
            self._owns_engine = True
        self._server_ref: Optional["BEASServer"] = None
        self._closed = False

    @staticmethod
    def _check_engine_consistency(
        options: Optional[ExecutionOptions], engine: ExecutionOptions
    ) -> None:
        if options is None:
            return
        for name in _ENGINE_PINNED:
            wanted = getattr(options, name)
            if wanted is not None and wanted != getattr(engine, name):
                raise BEASError(
                    f"{name}={wanted!r} conflicts with the adopted engine's "
                    f"{name}={getattr(engine, name)!r}; engine-level options "
                    "are fixed when the BEAS engine is built"
                )

    # ------------------------------------------------------------------ #
    @property
    def beas(self) -> BEAS:
        """The underlying engine (checker/planner/executor facade)."""
        return self._beas

    @property
    def database(self) -> Database:
        return self._beas.database

    @property
    def server(self) -> "BEASServer":
        """The engine's one sharded serving backend (built on first
        use; this session's resolved options become the base layer of
        every request it serves, and its ``server_options`` apply to
        that first build)."""
        server = self._server_ref
        if server is None:
            server = self._beas._serve(
                self._resolved_options, **self._server_options
            )
            self._server_ref = server
        return server

    @property
    def options(self) -> ExecutionOptions:
        """The session-resolved options (every field concrete)."""
        return self._resolved_options

    # ------------------------------------------------------------------ #
    # the lifecycle
    # ------------------------------------------------------------------ #
    def query(self, sql: str, name: Optional[str] = None) -> Query:
        """Prepare ``sql`` once and return its :class:`Query` handle."""
        return Query(self, self.server.prepare(sql, name))

    def run(
        self,
        sql: Union[str, Any],
        *,
        options: Optional[ExecutionOptions] = None,
        **fields,
    ) -> Result:
        """One-shot convenience: ``session.query(sql).run(...)`` without
        keeping the handle (still served through every cache)."""
        return self.server.execute(sql, options=options, **fields)

    def explain(self, sql: str) -> str:
        return self.query(sql).explain()

    def analyze(self, sql: str, profiles=None):
        """The Fig.-3 performance panel for a covered query (engine
        knobs follow this session's resolved options)."""
        return self._beas.analyze_performance(sql, profiles)

    # ------------------------------------------------------------------ #
    # access schema + maintenance (through the serving locks)
    # ------------------------------------------------------------------ #
    def register(self, constraint: AccessConstraint, *, validate: bool = True) -> None:
        self.server.register(constraint, validate=validate)

    def register_all(
        self, constraints: Sequence[AccessConstraint], *, validate: bool = True
    ) -> None:
        self.server.register_all(constraints, validate=validate)

    def unregister(self, constraint_name: str) -> None:
        self.server.unregister(constraint_name)

    def insert(self, table_name: str, rows, *, adjust_bounds: bool = False):
        return self.server.insert(table_name, rows, adjust_bounds=adjust_bounds)

    def delete(self, table_name: str, rows):
        return self.server.delete(table_name, rows)

    # ------------------------------------------------------------------ #
    def serve_async(
        self,
        *,
        max_workers: Optional[int] = None,
        admission_limit: Optional[int] = None,
    ) -> "AsyncBEASServer":
        """An asyncio front end over this session's serving backend."""
        from repro.serving.async_server import AsyncBEASServer

        return AsyncBEASServer(
            self.server,
            max_workers=max_workers,
            admission_limit=admission_limit,
        )

    def stats(self) -> "ServingStats":
        """Serving counters, including plan-rebind and checker-run
        totals."""
        return self.server.stats()

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release engine resources (idempotent).

        Closes the engine pool when this Session built the engine; an
        adopted engine is left to its owner."""
        self._closed = True
        if self._owns_engine:
            self._beas.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"Session({self._beas.database.name}: {state}, "
            f"{self._resolved_options.describe()})"
        )
