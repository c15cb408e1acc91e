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

        # one template, many bindings: the decision pinned above is
        # REBOUND by value for every later equal-arity binding — zero BE
        # Checker runs, and no copy of the plan
        for day in days:
            r = q.bind(date=day).run()

* :class:`Session` — context-managed facade over one
  :class:`~repro.beas.system.BEAS` engine, whose serving state
  (parse/decision/result caches, per-table locks) every Session over it
  shares; its writes are the engine's.
* :class:`Query` — an immutable handle for one prepared template;
  ``bind`` produces a new handle for a concrete binding, ``decide``
  pins (or rebinds) the coverage decision, ``run`` executes.
* :class:`Decision` (:mod:`repro.bounded.rebind`) — one request's
  decision, one value: the pinned checker outcome (boundedness verdict,
  plan, deduced bounds), a rebound binding's constant vector, budget
  feasibility, and **cache provenance** (``fresh`` | ``cached`` |
  ``rebound`` | ``result-cache``).
* :class:`Result` — rows + schema + :class:`ExecutionMetrics`
  (executor/pool/lock counters) + the decision that produced them.
* :class:`ExecutionOptions` (:mod:`repro.config`) — every execution
  knob in one validated dataclass, resolved through a single precedence
  chain: **call > Query > Session > environment > defaults**.

A Session's options refine its engine's (``engine.options``) like every
other layer: the engine-level knobs (``rows_per_batch``,
``parallelism``, ``storage``, ``replicas``, ...) are pinned when the
engine is built, and supplying a *different* value at Session (over an
adopted engine), Query or call level raises
:class:`~repro.errors.BEASError` rather than being silently ignored.
``executor`` may be overridden per Query or per call (answers are
mode-independent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence, Union

from repro.access.constraint import AccessConstraint
from repro.access.schema import AccessSchema
from repro.beas.result import ExecutionMode
from repro.beas.system import BEAS
from repro.bounded.rebind import Decision
from repro.config import ExecutionOptions, options_layer
from repro.engine.metrics import ExecutionMetrics
from repro.errors import BEASError
from repro.storage.database import Database

if TYPE_CHECKING:  # pragma: no cover
    from repro.bounded.approximation import ApproximateResult
    from repro.serving.async_server import AsyncBEASServer
    from repro.serving.params import ParameterSlot
    from repro.serving.prepared import PreparedQuery
    from repro.serving.server import ServingStats

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
    decision: Decision
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
        run; later equal-signature bindings rebind the pinned decision
        to their constants (``provenance == "rebound"``) — no checker
        run. ``budget`` defaults to the resolved options' budget."""
        return decide_only(self._session.beas, self._request(budget))

    def explain(self) -> str:
        """The bounded plan for this binding, or the fallback reasons."""
        return explain(self._session.beas, self._request())

    def _request(self, budget: Optional[int] = None) -> "Request":
        """A decision-only request for this binding, under the session's
        options refined by this handle's (and ``budget``, given one)."""
        resolved = self._session.options.refine(self._options)
        if budget is not None:
            resolved = resolved.replace(budget=budget)
        return Request(resolved, self._prepared, self._params or None, self)

    def run(
        self,
        *,
        options: Optional[ExecutionOptions] = None,
        **fields,
    ) -> Result:
        """Execute this binding through the serving caches.

        ``options``/keyword fields form the call layer of the precedence
        chain (e.g. ``run(budget=5000, executor="columnar")``)."""
        return self._session._serve(
            self._prepared,
            self._params or None,
            self,
            self._options,
            options_layer(options, fields),
        )

    __call__ = run

    def __repr__(self) -> str:
        bound = f", params={sorted(self._params)}" if self._params else ""
        return f"Query({self.name}{bound})"


# --------------------------------------------------------------------------- #
# sessions
# --------------------------------------------------------------------------- #
class Session:
    """Context-managed facade over one BEAS engine.

    Build it over a database (the Session owns and closes the engine)::

        with Session(database, access_schema) as session:
            result = session.query(sql).run()

    or adopt an existing engine (``Session(beas=engine)`` or
    ``engine.session()``) — the engine's lifetime stays the caller's.

    The engine's serving state is sharded by table and thread-safe, so
    any number of client threads can ``query``/``run`` concurrently
    while maintenance (:meth:`insert`/:meth:`delete`) proceeds per
    table. The engine's caches live as long as the engine: every
    Session over it, at once or later, is served from them.
    """

    def __init__(
        self,
        database: Optional[Database] = None,
        access_schema: Optional[AccessSchema] = None,
        *,
        beas: Optional[BEAS] = None,
        options: Optional[ExecutionOptions] = None,
        require_exact_multiplicities: bool = False,
    ):
        if (database is None) == (beas is None):
            raise BEASError(
                "Session needs exactly one of `database` (it builds the "
                "engine) or `beas` (it adopts an existing engine)"
            )
        if beas is not None:
            if access_schema is not None:
                raise BEASError(
                    "pass access_schema only when the Session builds the "
                    "engine; an adopted BEAS already has its catalog"
                )
            self._owns_engine = False
        else:
            # the Session's layer becomes the engine's keywords
            layer = options or ExecutionOptions()
            beas = BEAS(
                database,
                access_schema,
                require_exact_multiplicities=require_exact_multiplicities,
                executor=layer.executor,
                rows_per_batch=layer.rows_per_batch,
                parallelism=layer.parallelism,
                storage=layer.storage,
                storage_dir=layer.storage_dir,
                replicas=layer.replicas,
                fleet_port_base=layer.fleet_port_base,
            )
            self._owns_engine = True
        self._beas = beas
        self._resolved_options = beas.options.refine(options)
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def beas(self) -> BEAS:
        """The underlying engine (checker/planner/executor facade)."""
        return self._beas

    @property
    def database(self) -> Database:
        return self._beas.database

    server = beas  # the name perf/ reads the engine by

    @property
    def options(self) -> ExecutionOptions:
        """The session-resolved options (every field concrete)."""
        return self._resolved_options

    # ------------------------------------------------------------------ #
    # the lifecycle
    # ------------------------------------------------------------------ #
    def query(self, sql: str, name: Optional[str] = None) -> Query:
        """Prepare ``sql`` once and return its :class:`Query` handle."""
        return Query(self, self._beas.prepare(sql, name))

    def run(
        self,
        sql: Union[str, Any],
        *,
        options: Optional[ExecutionOptions] = None,
        **fields,
    ) -> Result:
        """One-shot convenience: ``session.query(sql).run(...)`` without
        keeping the handle (still served through every cache).
        ``options`` / keyword fields form the call layer."""
        return self._serve(sql, None, None, options_layer(options, fields))

    def _serve(
        self,
        source: Any,
        params: Optional[Mapping[str, Any]],
        query: Optional[Query],
        *layers: Optional[ExecutionOptions],
    ) -> Result:
        """The one way in: every read is one Request, under this
        session's resolved options refined by ``layers`` (Query, call),
        run through the serving stages."""
        return serve(
            self._beas,
            Request(self._resolved_options.refine(*layers), source, params, query),
        )

    def explain(self, sql: str) -> str:
        """What :meth:`Query.explain` says of ``sql``, resolved as
        :meth:`run` resolves it: no template is filed under a name."""
        return explain(self._beas, Request(self._resolved_options, sql))

    def analyze(self, sql: str):
        """The Fig.-3 performance panel for a covered query, under the
        decision this session's decide path makes of ``sql`` (so the BE
        Checker runs once per shape, counted, as for :meth:`run`)."""
        request = Request(self._resolved_options, sql)
        return self._beas.analyze_performance(sql, decide_only(self._beas, request))

    # ------------------------------------------------------------------ #
    # access schema + maintenance: the engine's
    # ------------------------------------------------------------------ #
    def register(self, constraint: AccessConstraint, *, validate: bool = True) -> None:
        self._beas.register(constraint, validate=validate)

    def register_all(
        self, constraints: Sequence[AccessConstraint], *, validate: bool = True
    ) -> None:
        self._beas.register_all(constraints, validate=validate)

    def unregister(self, constraint_name: str) -> None:
        self._beas.unregister(constraint_name)

    def insert(self, table_name: str, rows, *, adjust_bounds: bool = False):
        return self._beas.insert(table_name, rows, adjust_bounds=adjust_bounds)

    def delete(self, table_name: str, rows):
        return self._beas.delete(table_name, rows)

    # ------------------------------------------------------------------ #
    def serve_async(
        self,
        *,
        max_workers: Optional[int] = None,
        admission_limit: Optional[int] = None,
    ) -> "AsyncBEASServer":
        """An asyncio front end whose reads are this session's requests."""
        from repro.serving.async_server import AsyncBEASServer

        return AsyncBEASServer(
            self,
            max_workers=max_workers,
            admission_limit=admission_limit,
        )

    def stats(self) -> "ServingStats":
        """Serving counters, including plan-rebind and checker-run
        totals."""
        return self._beas.stats()

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


# The request path imports Decision and Result from this module, so it is
# imported once they exist (and not per read: an import statement costs
# about as much as a cached read's whole front end).
from repro.serving.request import Request, decide_only, explain, serve  # noqa: E402
