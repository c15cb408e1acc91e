"""The served-read request path: one context, one ordered list of stages.

Every read is a Session request: ``Session.run`` and ``Query.run`` (and
through them ``Decision.run`` and both ``AsyncBEASServer`` reads) build
one :class:`Request` holding the session's fully resolved
:class:`~repro.beas.session.ExecutionOptions` and hand it to
:func:`serve`, which runs :data:`STAGES` in order. The first stage that
returns a :class:`~repro.beas.session.Result` ends the request; the
read holds the ``observe`` stage was granted are released on every way
out.

The answer is the paper's (§2, Fig. 1): BE Checker -> BE Plan Generator
-> bounded / partially bounded / conventional / approximate execution.
The serving-side :class:`~repro.engine.metrics.ExecutionMetrics` fields
(``cache_hits``, ``cache_misses``, ``lock_wait_seconds``,
``table_versions``, ``decision_provenance``) are written in
:func:`_result` and nowhere else; ``docs/api.md`` ("The request path")
lists which stage feeds which field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Hashable,
    Mapping,
    Optional,
    Union,
    cast,
)

from repro.beas.result import ExecutionMode
from repro.beas.session import Result
from repro.bounded.rebind import Decision, RebindTemplate, build_rebind_template
from repro.engine.metrics import ExecutionMetrics
from repro.engine.router import allowed_routes
from repro.errors import ServingError
from repro.serving.prepared import PreparedBinding, PreparedQuery
from repro.serving.shard import grant, release
from repro.sql import ast

if TYPE_CHECKING:  # pragma: no cover
    from repro.beas.session import Query
    from repro.beas.system import BEAS
    from repro.config import ExecutionOptions
    from repro.bounded.approximation import ApproximateResult
    from repro.bounded.coverage import CoverageDecision
    from repro.engine.executor import QueryResult
    from repro.engine.router import RouteChoice
    from repro.serving.shard import ShardLock

#: an answer that presented more keys than this is filed coarse on all
#: its tables: filing it key by key would cost more than a re-run
READ_SET_CAP = 1024


@dataclass
class CachedResult:
    """One result-cache entry plus what it depends on: what the
    :class:`~repro.serving.cache.ResultCache` files it under and the
    tables' sweep ``epochs`` its request observed (sorted table order).
    ``cost`` is the wall seconds the miss that produced it took from
    ``observe`` to ``admit`` (what a re-run would pay): the cache's
    retention priority. ``decision`` is the miss's, stamped
    ``"result-cache"`` without a query handle: what every hit without
    one is served with (:func:`_hit_decision`).
    """

    columns: list[str]
    rows: list[tuple[Any, ...]]
    mode: ExecutionMode
    decision: Decision
    schema_generation: int
    tables: frozenset[str]
    read_keys: tuple[tuple[str, tuple[Any, ...]], ...]
    coarse_tables: frozenset[str]
    epochs: tuple[int, ...]
    cost: float


def _entry_fresh(entry: CachedResult, request: "Request") -> bool:
    """A hit is served only when the entry was computed under the live
    access-schema generation and none of its tables was swept since —
    both observed under the request's read locks."""
    return (
        entry.schema_generation == request.generation
        and entry.epochs == request.epochs
    )


@dataclass(slots=True, eq=False, repr=False)
class Request:
    """One served read: what was asked, then what each stage observed.

    The entry point fixes ``options`` (fully resolved), ``source`` (SQL
    text, a parsed statement, or a prepared template with ``params``)
    and ``query`` (the handle a ``Decision`` re-runs through). Every
    other field is written by exactly one stage and read by later ones.
    """

    options: "ExecutionOptions"
    source: Union[str, ast.Statement, PreparedQuery]
    params: Optional[Mapping[str, Any]] = None
    query: Optional["Query"] = None
    # front_end
    #: the binding's cache key (``PreparedBinding.fingerprint``)
    fingerprint: Hashable = field(init=False)
    tables: frozenset[str] = field(init=False)
    #: the template binding this request is; with overrides, its pinned
    #: plan is reused across bindings (``PreparedBinding.rebind_key``)
    binding: PreparedBinding = field(init=False)
    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    # observe
    started: float = field(init=False)
    #: the read holds :func:`serve` releases
    locks: Optional[tuple["ShardLock", ...]] = field(default=None, init=False)
    lock_wait: float = field(init=False)
    generation: int = field(init=False)
    versions: dict[str, int] = field(init=False)
    #: the result cache's sweep epochs of ``versions``' tables
    epochs: tuple[int, ...] = field(init=False)
    result_key: tuple[Any, ...] = field(init=False)
    #: what the result cache held under ``result_key`` when observed
    entry: Optional[CachedResult] = field(default=None, init=False)
    # decide / route / execute
    #: the decision this request runs; a rebound one by value
    decision: Decision = field(init=False)
    #: the way the plan runs; ``choice`` is set when the router picked it
    route: Optional[str] = field(default=None, init=False)
    choice: Optional["RouteChoice"] = field(default=None, init=False)
    mode: ExecutionMode = field(init=False)
    answer: Union["QueryResult", "ApproximateResult"] = field(init=False)

    def statement(self) -> ast.Statement:
        """The bound AST, substituted on first use only: a decision
        served from the cache or by rebinding, then executed as its
        pinned bounded (or partially bounded) plan, never needs it."""
        return self.binding.statement


Stage = Callable[["BEAS", Request], Optional[Result]]


# --------------------------------------------------------------------------- #
# the stages, in request order
# --------------------------------------------------------------------------- #
def front_end(beas: "BEAS", request: Request) -> None:
    """Resolve the source to one binding of one template: the request's
    parameters bound to a prepared template, or, for SQL text, the
    text's own literals bound to the template of its shape (through the
    parse cache; ``BEAS.frontend``)."""
    source = request.source
    if isinstance(source, PreparedQuery):
        bound, hit = source.binding(request.params), True  # parse amortised
    else:
        bound, hit = beas.frontend(source)
    request.binding = bound
    request.fingerprint = bound.fingerprint
    request.tables = bound.tables
    if hit:
        request.hits = 1
    else:
        request.misses = 1


def observe(beas: "BEAS", request: Request) -> None:
    """Be granted the schema + dependency read holds and observe, under
    them, the access-schema generation, the table-version vector and,
    in the result cache's same section, what it holds for this key."""
    # wall-clock anchor of a cached serve's latency (real, never 0.0) and
    # of a miss's cost, by which the result cache retains its answer
    request.started = time.perf_counter()
    locks = beas.read_locks(request.tables)
    request.lock_wait = grant(locks)
    request.locks = locks
    # observed while holding the schema + shard read locks: a completed
    # register/unregister (schema write section) and a completed
    # adjust_bounds batch on any dependency table (its shard write
    # section) are both visible here, so a decision or result pinned
    # under the old schema can never be consumed by this request
    request.generation = beas.observe_schema_generation()
    # the consistent table-version vector this request observes: read
    # under the shard read locks, so no dependency can move under us
    database = beas.database
    versions = request.versions = {
        name: database.table(name).version
        for name in request.binding.table_order
        if name in database
    }
    options = request.options
    key = request.result_key = (
        request.fingerprint,
        options.budget,
        options.approximate_over_budget,
    )
    # a table that moved below the engine is swept here
    if options.use_result_cache:
        request.epochs, request.entry = beas.results.observe(versions, probe=key)
    else:
        request.epochs = beas.results.observe(versions)


def probe_exact(beas: "BEAS", request: Request) -> Optional[Result]:
    """Serve the presentation-equal answer ``observe`` found in the
    result cache, if it is still fresh."""
    if not request.options.use_result_cache:
        return None
    entry = request.entry
    if entry is not None:
        if _entry_fresh(entry, request):
            return _serve_cached(request, entry)
        # outdated despite sweeps: drop defensively
        beas.results.invalidate(request.result_key)
    request.misses += 1
    return None


def decide(beas: "BEAS", request: Request) -> None:
    """Decide or rebind: the decision for this request, from a pinned
    template, the decision cache, or a full BE Checker run."""
    decision = request.decision = _decision(beas, request)
    if decision.provenance == "fresh":
        request.misses += 1
    else:
        request.hits += 1


def route(beas: "BEAS", request: Request) -> None:
    """Choose the way the decision's bounded plan (or bounded prefix)
    runs: the first of :func:`~repro.engine.router.allowed_routes`, or,
    when ``routing="learned"`` leaves several open, the one with the
    lowest mean measured latency for this template and binding
    signature. Answers are route-independent, so a wrong pick costs
    latency only."""
    options, decision = request.options, request.decision
    plan = decision.runs  # a rebound request's: the pinned plan
    if plan is None:
        return  # conventional evaluation: nothing to route
    routes = allowed_routes(options, plan)
    request.route = routes[0]
    if len(routes) > 1 and (decision.budget is None or decision.within_budget):
        binding = request.binding
        request.choice = beas.router.route(
            binding.template_fingerprint, binding.signature, routes
        )
        request.route = request.choice.route


def execute(beas: "BEAS", request: Request) -> None:
    """Run the decision on the engine and train the router on it."""
    mode, answer = beas.evaluate(
        request.statement,
        request.decision,
        request.options,
        route=request.route,
    )
    request.mode, request.answer = mode, answer
    choice = request.choice
    if choice is not None and mode is ExecutionMode.BOUNDED:
        answer.metrics.routed_mode = choice.route
        answer.metrics.routing_explored = choice.explored
        binding = request.binding
        beas.router.observe(
            binding.template_fingerprint,
            binding.signature,
            choice.route,
            answer.metrics,
        )


def admit(beas: "BEAS", request: Request) -> Result:
    """Offer the executed answer to the result cache, then answer."""
    options, mode, answer = request.options, request.mode, request.answer
    approximate = mode is ExecutionMode.APPROXIMATE
    if options.use_result_cache and not approximate:
        _admit(beas, request)
    return _result(
        request,
        answer.columns,
        answer.rows,
        mode,
        answer.metrics,
        request.decision,
        cast("ApproximateResult", answer) if approximate else None,
    )


#: The request path. ``observe`` is granted the read holds every later
#: stage runs under; :func:`serve` releases them.
STAGES: tuple[Stage, ...] = (
    front_end,
    observe,
    probe_exact,
    decide,
    route,
    execute,
    admit,
)


def serve(beas: "BEAS", request: Request) -> Result:
    """Run ``request`` through :data:`STAGES`; the first stage that
    returns a result ends it."""
    try:
        for stage in STAGES:
            result = stage(beas, request)
            if result is not None:
                return result
    finally:
        if request.locks is not None:
            release(request.locks)
    raise ServingError("no stage answered the request")


def decide_only(beas: "BEAS", request: Request) -> Decision:
    """The decision-only path (``Query.decide``): front end, then
    decide-or-rebind under the schema read lock alone — no result probe,
    no execution."""
    front_end(beas, request)
    with beas.schema_read():
        # observed under the read lock: a completed register/unregister
        # (write section) is guaranteed visible here
        request.generation = beas.observe_schema_generation()
        decide(beas, request)
    return request.decision


def explain(beas: "BEAS", request: Request) -> str:
    """The explain path (``Query.explain``, ``Session.explain``): the
    decision-only path, then what the decision explains, and, not
    covered, the host plan — nothing is checked again."""
    decision = decide_only(beas, request)
    return beas.explain(request.statement(), decision)


# --------------------------------------------------------------------------- #
# stage helpers
# --------------------------------------------------------------------------- #
def _result(
    request: Request,
    columns: list[str],
    rows: list[tuple[Any, ...]],
    mode: ExecutionMode,
    metrics: ExecutionMetrics,
    decision: Decision,
    approximation: Optional["ApproximateResult"] = None,
) -> Result:
    """Build the one ``Result``: the only writer of the serving-side
    metric fields."""
    metrics.cache_hits = request.hits
    metrics.cache_misses = request.misses
    metrics.lock_wait_seconds = request.lock_wait
    metrics.table_versions = request.versions
    metrics.decision_provenance = decision.provenance
    return Result(
        columns=list(columns),
        rows=rows,
        mode=mode,
        metrics=metrics,
        decision=decision,
        options=request.options,
        approximation=approximation,
    )


def _serve_cached(request: Request, entry: CachedResult) -> Result:
    seconds = time.perf_counter() - request.started
    request.hits += 1
    rows = list(entry.rows)
    metrics = ExecutionMetrics(
        rows_output=len(rows), seconds=seconds, served_from_cache=True
    )
    return _result(
        request, entry.columns, rows, entry.mode, metrics,
        _hit_decision(request, entry),
    )  # fmt: skip


def _hit_decision(request: Request, entry: CachedResult) -> Decision:
    """The ``Decision`` a hit on ``entry`` is stamped with: the entry's
    own, handle-free one (a fresh entry's generation and budget are the
    request's), or, for a ``Query`` handle's hit, a copy holding the
    handle. The entry keeps no handle: a ``Query`` holds its Session,
    which holds the engine, and the cache must not refer back to it."""
    if request.query is None:
        return entry.decision
    return entry.decision.restamped("result-cache", request.query)


def _decision(beas: "BEAS", request: Request) -> Decision:
    """The request's decision, by provenance: ``"rebound"`` (the
    signature's pinned decision rebound to this binding by value — no
    BE Checker run, no copy), ``"cached"`` (an exact per-binding hit),
    or ``"fresh"`` (a full BE Checker run and, when that says not
    covered, the BE Plan Optimizer's analysis: the decision is cached
    with its ``partial`` plan, so neither runs again for this key).

    A binding with overrides asks its signature's pinned template first,
    keyed by (template fingerprint, arity signature, generation) — the
    values of a binding never enter that key, only its shape. What
    rebinds — a covered decision, or a partially bounded one — is never
    filed per binding: exact entries, keyed by (binding key,
    generation), hold the decisions that do not — a set operation, a
    not-covered decision without a bounded prefix, a guard fallback,
    the template's own constants. Both keys carry the access-schema
    generation, so a decision made under an old schema is never served
    after a change. A template is pinned only when none was: a guard
    fallback's odd binding does not displace it.
    """
    cache, generation = beas.decision_cache, request.generation
    query, budget = request.query, request.options.budget
    bound = request.binding
    rebind_key: Optional[tuple[Any, ...]] = None
    pinned: Optional[RebindTemplate] = None
    if bound.overrides:
        rebind_key = bound.rebind_key(generation)
        pinned = cache.get(rebind_key)
        if pinned is not None:
            rebound = pinned.rebind(
                bound.overrides, generation=generation, query=query, budget=budget
            )
            if rebound is not None:
                beas.count("rebinds")
                return rebound
            beas.count("rebind_fallbacks")
    key = (request.fingerprint, generation)
    cached: Optional["CoverageDecision"] = cache.get(key)
    if cached is not None:
        return Decision(cached, "cached", generation, query, budget)
    coverage: "CoverageDecision" = beas.check(request.statement())
    template: Optional[RebindTemplate] = None
    if rebind_key is not None and pinned is None:
        template = build_rebind_template(coverage, bound.overrides)
    if template is not None:
        cache.put(rebind_key, template)
    else:
        cache.put(key, coverage)
    return Decision(coverage, "fresh", generation, query, budget)


#: the ``coarse_tables`` of most cached answers, one object for all of them
_NO_TABLES: frozenset[str] = frozenset()


def _filing(
    beas: "BEAS", request: Request
) -> tuple[tuple[tuple[str, tuple[Any, ...]], ...], frozenset[str]]:
    """The executed answer's ``read_keys`` and ``coarse_tables``: the
    distinct (constraint, X-key) pairs of its read set, and the tables
    it scanned or fetched nothing of — or all of them, when the read set
    is unknown or longer than the cap."""
    answer = cast("QueryResult", request.answer)
    read_set = answer.read_set
    if read_set is None or sum(map(len, read_set.values())) > READ_SET_CAP:
        return (), request.tables
    keys = {
        (name, key) for name, presented in read_set.items() for key in presented
    }
    constraints = beas.catalog.schema
    fetched = {constraints.get(name).relation for name in read_set}
    coarse = answer.scanned_tables | (request.tables - fetched)
    return tuple(keys), coarse or _NO_TABLES


def _admit(beas: "BEAS", request: Request) -> None:
    # a PARTIAL or CONVENTIONAL answer is installed on first sight: its
    # recompute scans a relation, so it grows with |D|; a BOUNDED one
    # waits for the doorkeeper's second sighting
    if request.mode is ExecutionMode.BOUNDED and not beas.results.admits(
        request.result_key
    ):
        return  # a first sighting: nothing is built for it
    answer = request.answer
    read_keys, coarse_tables = _filing(beas, request)
    entry = CachedResult(
        columns=list(answer.columns),
        rows=list(answer.rows),
        mode=request.mode,
        decision=request.decision.restamped("result-cache", None),
        schema_generation=request.generation,
        tables=request.tables,
        read_keys=read_keys,
        coarse_tables=coarse_tables,
        epochs=request.epochs,
        cost=time.perf_counter() - request.started,
    )
    # filed while still holding every dependency's read lock: a writer
    # changing one of these tables cannot run until we release, so its
    # invalidation will find this entry
    beas.results.install(request.result_key, entry)
