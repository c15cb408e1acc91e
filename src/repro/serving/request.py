"""The served-read request path: one context, one ordered list of stages.

Every read entry point — ``Session.run``, ``Query.run`` (and through it
``Decision.run``), ``BEASServer.execute`` / ``execute_prepared`` (and
through them ``PreparedQuery.execute`` and both ``AsyncBEASServer``
forwards) — builds one :class:`Request` holding the fully resolved
:class:`~repro.beas.session.ExecutionOptions` and hands it to
:func:`serve`, which runs :data:`STAGES` in order. The first stage that
returns a :class:`~repro.beas.session.Result` ends the request; the
read locks the ``observe`` stage took are released on every way out.

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
from dataclasses import dataclass, field, replace
from itertools import chain, compress, repeat
from operator import is_
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Union, cast

from repro.beas.result import ExecutionMode
from repro.beas.session import Decision, Result
from repro.bounded.rebind import RebindTemplate, build_rebind_template
from repro.bounded.subsume import (
    Candidate,
    QuerySummary,
    apply_refilter,
    subsumes,
    summarize_statement,
)
from repro.engine.metrics import ExecutionMetrics
from repro.engine.router import allowed_routes, routing_features
from repro.errors import ServingError
from repro.serving.cache import approx_size
from repro.serving.prepared import PreparedBinding, PreparedQuery
from repro.sql import ast

if TYPE_CHECKING:  # pragma: no cover
    from repro.beas.session import ExecutionOptions, Query
    from repro.bounded.approximation import ApproximateResult
    from repro.bounded.coverage import CoverageDecision
    from repro.engine.executor import QueryResult
    from repro.engine.router import RouteChoice
    from repro.serving.server import BEASServer
    from repro.serving.shard import Shard

#: an answer that presented more keys than this is filed coarse on all
#: its tables: filing it key by key would cost more than a re-run
READ_SET_CAP = 1024

# result_size's charges, approx_size's for the same shapes
_ROWS = 56  # the list of rows
_ROW = 8 + 56  # a list slot and a tuple
_CELL = 8 + 28  # a tuple slot and a number
_STRING = 49 - 28  # what a string costs beyond a number, before its length


@dataclass
class CachedResult:
    """One result-cache entry plus what it depends on: what the
    :class:`~repro.serving.cache.ResultCache` files it under, the
    tables' sweep ``epochs`` its request observed (sorted table order)
    and ``table_versions``, stamped only when the entry is persisted.

    ``summary`` is the entry's predicate-lattice summary, present only
    when the request ran with ``result_reuse="subsume"`` and the entry
    is an eligible subsumption source (BOUNDED mode, reusable shape);
    ``template_fingerprint`` records the pinned rebind template the
    answer derived from, so a merged-arity fallback can drop candidates
    with stale plan provenance. ``cost`` is the wall seconds the miss
    that produced it took from ``observe`` to ``admit`` (what a re-run
    would pay): the cache's retention priority.
    """

    columns: list[str]
    rows: list[tuple[Any, ...]]
    mode: ExecutionMode
    decision: "CoverageDecision"
    schema_generation: int
    tables: frozenset[str]
    read_keys: tuple[tuple[str, tuple[Any, ...]], ...]
    coarse_tables: frozenset[str]
    epochs: tuple[int, ...]
    table_versions: Optional[dict[str, int]] = None
    summary: Optional[QuerySummary] = None
    template_fingerprint: Optional[str] = None
    cost: float = 0.0


def result_size(entry: CachedResult) -> int:
    """The byte-budget measure of an entry, in one flat pass:
    ``approx_size`` of the same rows, but for charging a NULL or a BOOL
    as any other cell."""
    rows = entry.rows
    cells = list(chain.from_iterable(rows))
    strings = list(map(is_, map(type, cells), repeat(str)))
    return (
        approx_size(entry.columns)
        + _ROWS + _ROW * len(rows) + _CELL * len(cells)
        + _STRING * sum(strings)
        + sum(map(len, compress(cells, strings)))
    )  # fmt: skip


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
    fingerprint: str = field(init=False)
    tables: frozenset[str] = field(init=False)
    #: the template binding this request is; with overrides, its pinned
    #: plan is reused across bindings (``PreparedBinding.rebind_key``)
    binding: PreparedBinding = field(init=False)
    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    # observe
    started: float = field(init=False)
    #: the read holds :func:`serve` releases
    shards: Optional[list["Shard"]] = field(default=None, init=False)
    lock_wait: float = field(init=False)
    generation: int = field(init=False)
    versions: dict[str, int] = field(init=False)
    #: the result cache's sweep epochs of ``versions``' tables
    epochs: tuple[int, ...] = field(init=False)
    result_key: tuple[Any, ...] = field(init=False)
    # decide / route / execute
    coverage: "CoverageDecision" = field(init=False)
    provenance: str = field(init=False)
    #: the way the plan runs; ``choice`` is set when the router picked it
    route: Optional[str] = field(default=None, init=False)
    choice: Optional["RouteChoice"] = field(default=None, init=False)
    features: tuple[float, ...] = field(init=False)
    mode: ExecutionMode = field(init=False)
    answer: Union["QueryResult", "ApproximateResult"] = field(init=False)

    def statement(self) -> ast.Statement:
        """The bound AST, substituted on first use only: a decision
        served from the cache or by rebinding, then executed as its
        pinned bounded (or partially bounded) plan, never needs it."""
        return self.binding.statement

    @property
    def template_fingerprint(self) -> str:
        """What the router keys its models by: every binding of one
        template (prepared, or the shape of an ad-hoc text) shares a
        model."""
        return self.binding.template.fingerprint


Stage = Callable[["BEASServer", Request], Optional[Result]]


# --------------------------------------------------------------------------- #
# the stages, in request order
# --------------------------------------------------------------------------- #
def front_end(server: "BEASServer", request: Request) -> None:
    """Resolve the source to one binding of one template: the memoised
    binding of a prepared template, or, for SQL text, the text's own
    literals bound to the template of its shape (through the parse
    cache; ``BEASServer.frontend``)."""
    source = request.source
    if isinstance(source, PreparedQuery):
        bound, hit = source.binding(request.params), True  # parse amortised
    else:
        bound, hit = server.frontend(source)
    request.binding = bound
    request.fingerprint = bound.fingerprint
    request.tables = bound.template.tables
    if hit:
        request.hits = 1
    else:
        request.misses = 1


def observe(server: "BEASServer", request: Request) -> None:
    """Take the schema + dependency read locks and observe, under them,
    the access-schema generation and the table-version vector."""
    # wall-clock anchor of a cached serve's latency (real, never 0.0) and
    # of a miss's cost, by which the result cache retains its answer
    request.started = time.perf_counter()
    server.count("executions")
    shards, request.lock_wait = server.acquire_reads(request.tables)
    request.shards = shards
    # observed while holding the schema + shard read locks: a completed
    # register/unregister (schema write section) and a completed
    # adjust_bounds batch on any dependency table (its shard write
    # section) are both visible here, so a decision or result pinned
    # under the old schema can never be consumed by this request
    request.generation = server.observe_schema_generation()
    # the consistent table-version vector this request observes: read
    # under the shard read locks, so no dependency can move under us
    database = server.database
    versions = request.versions = {
        name: database.table(name).version
        for name in request.binding.template.table_order
        if name in database
    }
    # a table that moved around the serving layer is swept here
    request.epochs = server.results.observe(versions)
    options = request.options
    request.result_key = (
        request.fingerprint,
        options.budget,
        options.allow_partial,
        options.approximate_over_budget,
    )


def probe_exact(server: "BEASServer", request: Request) -> Optional[Result]:
    """Serve a presentation-equal answer from the result cache, if it
    is still fresh."""
    if not request.options.use_result_cache:
        return None
    entry = server.results.lookup(request.result_key)
    if entry is not None:
        if _entry_fresh(entry, request):
            return _serve_cached(request, entry, list(entry.rows), "result-cache")
        # outdated despite sweeps: drop defensively
        server.results.invalidate(request.result_key)
    request.misses += 1
    return None


def probe_subsumed(server: "BEASServer", request: Request) -> Optional[Result]:
    """Answer from a cached bounded superset after an exact miss
    (``result_reuse="subsume"``), or fall through.

    Runs under the request's read locks, so the freshness check applied
    to a candidate is made against the same consistent snapshot the
    fresh path would execute under.
    """
    options = request.options
    if not options.use_result_cache or options.result_reuse != "subsume":
        return None
    summary = _summary(server, request)
    if not summary.reusable:
        server.count("subsumption_rejects")
        return None
    examined = 0
    for candidate in server.subsume_index.candidates(summary.shape_key):
        entry = _live_source(server, request, candidate)
        if entry is None or entry.summary is None:
            continue
        examined += 1
        plan = subsumes(entry.summary, summary)
        if plan is None:
            continue
        rows = apply_refilter(plan, entry.columns, entry.rows)
        if rows is None:
            continue
        server.count("subsumed_hits")
        # The re-filtered answer is NOT re-admitted under its own key,
        # nor indexed as a candidate: it is strictly narrower than its
        # source, so the source answers every repeat and every further
        # refinement at probe cost, while a private copy would
        # double-cache the same rows and (if indexed) evict broader
        # sources from the per-shape LRU. Only the source's recency is
        # refreshed.
        server.subsume_index.touch(candidate.shape_key, candidate.result_key)
        return _serve_cached(request, entry, rows, "subsumed")
    if examined:
        # live same-shape candidates existed but none subsumed this
        # binding's region (or post-filtering was refused)
        server.count("subsumption_rejects")
    return None


def decide(server: "BEASServer", request: Request) -> None:
    """Decide or rebind: the coverage decision for this request, from
    the decision cache, a pinned template, or a full BE Checker run."""
    coverage, request.provenance = _decision(server, request)
    if request.provenance == "fresh":
        request.misses += 1
    else:
        request.hits += 1
    budget = request.options.budget
    if budget is not None and coverage.access_bound is not None:
        coverage = replace(
            coverage, within_budget=coverage.access_bound <= budget
        )
    request.coverage = coverage


def route(server: "BEASServer", request: Request) -> None:
    """Choose the way the decision's bounded plan (or bounded prefix)
    runs: the first of :func:`~repro.engine.router.allowed_routes`, or,
    when ``routing="learned"`` leaves several open, the one the
    per-template cost model predicts fastest. Answers are
    route-independent, so a wrong prediction costs latency only."""
    options, coverage = request.options, request.coverage
    plan = coverage.plan if coverage.covered else coverage.partial
    if plan is None:
        return  # conventional evaluation: nothing to route
    beas = server.beas
    routes = allowed_routes(options, beas, plan)
    request.route = routes[0]
    if len(routes) > 1 and (options.budget is None or coverage.within_budget):
        request.features = routing_features(
            plan,
            # scoped to the locked dependency tables: never scans (or
            # races with) tables this request did not lock
            beas._host.statistics(tables=request.tables),
            rows_per_batch=beas._rows_per_batch,
            parallelism=beas.parallelism,
        )
        request.choice = server.router.route(
            request.template_fingerprint, request.features, routes
        )
        request.route = request.choice.route


def execute(server: "BEASServer", request: Request) -> None:
    """Run the decision on the engine and train the router on it."""
    mode, answer = server.beas.evaluate(
        request.statement,
        request.coverage,
        request.options,
        route=request.route,
    )
    request.mode, request.answer = mode, answer
    choice = request.choice
    if choice is not None and mode is ExecutionMode.BOUNDED:
        answer.metrics.routed_mode = choice.route
        answer.metrics.routing_explored = choice.explored
        server.router.observe(
            request.template_fingerprint,
            choice.route,
            request.features,
            answer.metrics,
        )


def admit(server: "BEASServer", request: Request) -> Result:
    """Offer the executed answer to the result cache, then answer."""
    options, mode, answer = request.options, request.mode, request.answer
    approximate = mode is ExecutionMode.APPROXIMATE
    if options.use_result_cache and not approximate:
        _admit(server, request)
    return _result(
        request,
        answer.columns,
        answer.rows,
        mode,
        request.coverage,
        answer.metrics,
        request.provenance,
        cast("ApproximateResult", answer) if approximate else None,
    )


#: The request path. ``observe`` takes the read locks every later stage
#: runs under; :func:`serve` releases them.
STAGES: tuple[Stage, ...] = (
    front_end,
    observe,
    probe_exact,
    probe_subsumed,
    decide,
    route,
    execute,
    admit,
)


def serve(server: "BEASServer", request: Request) -> Result:
    """Run ``request`` through :data:`STAGES`; the first stage that
    returns a result ends it."""
    try:
        for stage in STAGES:
            result = stage(server, request)
            if result is not None:
                return result
    finally:
        if request.shards is not None:
            server.release_reads(request.shards)
    raise ServingError("no stage answered the request")


def decide_only(server: "BEASServer", request: Request) -> Decision:
    """The decision-only path (``check`` / ``decide_prepared`` /
    ``Query.decide``): front end, then decide-or-rebind under the schema
    read lock alone — no result probe, no execution."""
    front_end(server, request)
    with server.schema_read():
        # observed under the read lock: a completed register/unregister
        # (write section) is guaranteed visible here
        request.generation = server.observe_schema_generation()
        decide(server, request)
    return _stamp(request, request.coverage, request.provenance)


# --------------------------------------------------------------------------- #
# stage helpers
# --------------------------------------------------------------------------- #
def _stamp(
    request: Request, coverage: "CoverageDecision", provenance: str
) -> Decision:
    """The ``Decision`` for this request, stamped with the generation
    observed under the read locks — not the catalog's at return time."""
    return Decision(
        coverage=coverage,
        provenance=provenance,
        generation=request.generation,
        query=request.query,
        budget=request.options.budget,
    )


def _result(
    request: Request,
    columns: list[str],
    rows: list[tuple[Any, ...]],
    mode: ExecutionMode,
    coverage: "CoverageDecision",
    metrics: ExecutionMetrics,
    provenance: str,
    approximation: Optional["ApproximateResult"] = None,
) -> Result:
    """Build the one ``Result``: the only writer of the serving-side
    metric fields."""
    metrics.cache_hits = request.hits
    metrics.cache_misses = request.misses
    metrics.lock_wait_seconds = request.lock_wait
    metrics.table_versions = request.versions
    metrics.decision_provenance = provenance
    return Result(
        columns=list(columns),
        rows=rows,
        mode=mode,
        metrics=metrics,
        decision=_stamp(request, coverage, provenance),
        options=request.options,
        approximation=approximation,
    )


def _serve_cached(
    request: Request,
    entry: CachedResult,
    rows: list[tuple[Any, ...]],
    provenance: str,
) -> Result:
    seconds = time.perf_counter() - request.started
    request.hits += 1
    metrics = ExecutionMetrics(
        rows_output=len(rows), seconds=seconds, served_from_cache=True
    )
    return _result(
        request, entry.columns, rows, entry.mode, entry.decision, metrics,
        provenance,
    )  # fmt: skip


def _summary(server: "BEASServer", request: Request) -> QuerySummary:
    """The statement's predicate-lattice summary, through the summary
    cache (a pure function of the statement, keyed by fingerprint —
    never flushed for freshness)."""
    summary: Optional[QuerySummary] = server.summary_cache.get(
        request.fingerprint
    )
    if summary is None:
        summary = summarize_statement(request.statement())
        server.summary_cache.put(request.fingerprint, summary)
    return summary


def _live_source(
    server: "BEASServer", request: Request, candidate: Candidate
) -> Optional[CachedResult]:
    """The candidate's cache entry when it may soundly answer this
    request: cached under the same (budget, allow_partial,
    approximate_over_budget) triple — a subsumed answer must never
    out-run a budget refusal the fresh path would have issued — still
    cached, bounded, and fresh."""
    key = cast("tuple[Any, ...]", candidate.result_key)
    if key == request.result_key or key[1:] != request.result_key[1:]:
        return None  # the exact lookup missed on it / not comparable
    entry: Optional[CachedResult] = None
    if candidate.generation == request.generation:
        entry = server.results.peek(key)
    if entry is None:  # stale generation, or evicted/invalidated
        server.subsume_index.discard(candidate.shape_key, key)
        return None
    if (
        entry.mode is ExecutionMode.BOUNDED
        # the tables this request holds and observed, no others
        and entry.tables == request.tables
        and _entry_fresh(entry, request)
    ):
        return entry
    return None


def _decision(
    server: "BEASServer", request: Request
) -> tuple["CoverageDecision", str]:
    """The budget-free coverage decision and its provenance:
    ``"cached"`` (exact per-binding hit), ``"rebound"`` (pinned plan
    patched for this binding — no BE Checker run), or ``"fresh"`` (a
    full BE Checker run and, when that says not covered, the BE Plan
    Optimizer's analysis: the decision is cached with its ``partial``
    plan, so neither runs again for this key).

    Exact entries are keyed by (binding fingerprint, access-schema
    generation): a decision pinned under an old schema can never be
    served after a change. Pinned rebind templates are keyed by
    (template fingerprint, arity signature, generation) — the values of
    a binding never enter that key, only its shape.
    """
    cache, generation = server.decision_cache, request.generation
    bound = request.binding
    # the template's own constants: the exact key suffices
    rebind_key = bound.rebind_key(generation) if bound.overrides else None
    key = (request.fingerprint, generation)
    cached: Optional["CoverageDecision"] = cache.get(key)
    if cached is not None:
        return cached, "cached"
    if rebind_key is not None:
        pinned = cache.get(rebind_key)
        if isinstance(pinned, RebindTemplate):
            rebound = pinned.rebind(bound.overrides)
            if rebound is not None:
                cache.put(key, rebound)  # repeats of this binding hit directly
                server.count("rebinds")
                return rebound, "rebound"
            server.count("rebind_fallbacks")
            # the pinned plan is being abandoned (merged-arity or other
            # guard): any subsumption candidate derived from it carries
            # stale plan provenance — stop offering them
            dropped = server.subsume_index.drop_template(
                bound.template.fingerprint
            )
            if dropped:
                server.count("subsumption_invalidations", dropped)
    coverage: "CoverageDecision" = server.beas.check(request.statement())
    cache.put(key, coverage)
    if rebind_key is not None:
        template = build_rebind_template(coverage, bound.overrides)
        if template is not None:
            cache.put(rebind_key, template)
    return coverage, "fresh"


def _filing(
    server: "BEASServer", request: Request
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
    constraints = server.beas.catalog.schema
    fetched = {constraints.get(name).relation for name in read_set}
    return tuple(keys), answer.scanned_tables | (request.tables - fetched)


def _admit(server: "BEASServer", request: Request) -> None:
    options, answer = request.options, request.answer
    bounded = request.mode is ExecutionMode.BOUNDED
    summary: Optional[QuerySummary] = None
    if bounded and options.result_reuse == "subsume":
        # only a complete bounded answer is a sound subsumption source
        # (a PARTIAL answer's missing rows could be exactly the tighter
        # query's)
        summary = _summary(server, request)
        if not summary.reusable:
            summary = None
    bound = request.binding
    template = bound.template.fingerprint if bound.overrides else None
    if not server.results.admits(request.result_key):
        return  # a first sighting: nothing is built for it
    read_keys, coarse_tables = _filing(server, request)
    entry = CachedResult(
        columns=list(answer.columns),
        rows=list(answer.rows),
        mode=request.mode,
        decision=request.coverage,
        schema_generation=request.generation,
        tables=request.tables,
        read_keys=read_keys,
        coarse_tables=coarse_tables,
        epochs=request.epochs,
        summary=summary,
        template_fingerprint=template,
        cost=time.perf_counter() - request.started,
    )
    # filed while still holding every dependency's read lock: a writer
    # changing one of these tables cannot run until we release, so its
    # invalidation will find this entry
    if not server.results.install(request.result_key, entry):
        return
    if summary is not None:
        server.subsume_index.add(
            Candidate(
                shape_key=summary.shape_key,
                result_key=request.result_key,
                generation=request.generation,
                summary=summary,
                template_fingerprint=template,
            )
        )
