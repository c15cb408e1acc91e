"""The route decision: which way a covered plan runs, and the one place
that runs it.

A bounded plan can run down four routes — in-process ``row`` or
``columnar``, a ``pool`` worker process, a ``fleet`` replica — that
return the same rows in the same order with the same ``tuples_fetched``
(the differential suites lock this), so the choice is latency-only.
This module owns it:

* :func:`allowed_routes` is the whole policy, as data: which routes a
  request may take given its options, the engine's shape and the kind of
  plan. Static routing takes the first; learned routing picks among them.
* :class:`PlanRunner` is the one dispatcher: ``run_route(route, plan)``
  holds the only ``pool.execute_plan`` / ``fleet.execute_plan`` call
  sites, the single remote -> local-columnar fallback edge, and the
  stamping of the pool and fleet metrics. ``docs/invariants.md`` ("Route
  decision") states the rule the ``remote-dispatch`` lint enforces.
* :class:`ExecutorRouter` is the learned pick: the running mean of
  measured ``ExecutionMetrics.seconds`` per (template fingerprint,
  binding signature, route), lowest mean wins, with epsilon-greedy
  exploration. The binding signature (per-slot IN-list arity and type
  class) is everything that can differ between executions of one
  template's plan, so a mean is all a model of one key could fit. A
  wrong pick costs latency, never correctness.

What the result cache keeps is not decided here: it retains by each
answer's measured cost (``serving.cache.ResultCache``) under every
routing mode.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.bounded.executor import BoundedPlanExecutor
from repro.bounded.optimizer import PartialPlan
from repro.bounded.plan import AnyBoundedPlan, BoundedPlan
from repro.config import DEFAULT_ROWS_PER_BATCH, validate_routing_epsilon
from repro.engine.executor import QueryResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.access.catalog import ASCatalog
    from repro.bounded.skeleton import Constants
    from repro.config import ExecutionOptions
    from repro.distributed.fleet import ReplicaFleet
    from repro.engine.metrics import ExecutionMetrics
    from repro.engine.pool import EnginePool

#: Every route, in the order learned routing explores them. ``row`` and
#: ``columnar`` run in-process; ``pool`` and ``fleet`` ship the plan to a
#: peer process that runs it in columnar mode.
ROUTES = ("row", "columnar", "pool", "fleet")
LOCAL_ROUTES = ("row", "columnar")


def allowed_routes(
    options: "ExecutionOptions", plan: "AnyBoundedPlan | PartialPlan"
) -> tuple[str, ...]:
    """The routes this request may take, preferred first.

    ``options`` are the request's resolved options: its ``executor`` and
    ``routing``, and the engine's pinned shape, which says which peers
    exist (``parallelism >= 2``: a pool, ``replicas >= 2``: a fleet).
    ``plan`` is what is about to run: a covered :class:`BoundedPlan`, a
    covered set operation, or the :class:`PartialPlan` whose bounded
    prefix is.
    """
    pooled = options.parallelism >= 2
    if isinstance(plan, PartialPlan):
        # a PARTIAL prefix never goes to the fleet: its rows come back to
        # join the residual scan here
        return ("pool",) if pooled else (options.executor,)
    if not isinstance(plan, BoundedPlan):
        # a set operation's branches are combined in-process; an engine
        # with a pool runs them in batches, as its workers would
        return ("columnar",) if pooled else (options.executor,)
    if options.replicas >= 2:
        return ("fleet",)
    if options.routing == "learned":
        return ("row", "columnar", "pool") if pooled else LOCAL_ROUTES
    return ("pool",) if pooled else (options.executor,)


def _pool_snapshot(catalog: "ASCatalog") -> tuple[tuple, Callable[[], dict]]:
    """The warm-snapshot key for the catalog's current state plus the
    payload builder the pool pickles on a miss.

    The key is the access-schema generation and the data version of
    every table an access constraint covers — exactly the state a
    worker's indices reflect — so any maintenance on a covered table
    forces a fresh snapshot before the next dispatched task. The index
    map is captured at the same instant as the version vector (not when
    the pool later pickles it), keeping key and payload consistent; the
    serving layer's shard read locks additionally pin the indices'
    contents for the duration of an execute.
    """
    database = catalog.database
    tables = {constraint.relation for constraint in catalog.schema}
    payload = catalog.index_map()
    versions = tuple(
        sorted(
            (name, database.table(name).version)
            for name in tables
            if name in database
        )
    )
    return (catalog.schema_generation, versions), lambda: payload


class PlanRunner:
    """Runs a bounded plan down one route: the BE Plan Executor of the
    paper's Fig. 1, wherever the plan physically runs, with the paper's
    accounting (every intermediate row presents its key). A budgeted run
    (the resource-bounded approximation) is not routed: it is the row
    executor's, in-process."""

    def __init__(
        self,
        catalog: "ASCatalog",
        *,
        rows_per_batch: int = DEFAULT_ROWS_PER_BATCH,
        pool: Optional[Callable[[], Optional["EnginePool"]]] = None,
        fleet: Optional[Callable[[], Optional["ReplicaFleet"]]] = None,
    ):
        """``pool`` and ``fleet`` are zero-argument providers of the live
        peers (or ``None``): BEAS passes its lazy spawners, so processes
        start only when a remote route actually runs."""
        self._catalog = catalog
        self.rows_per_batch = rows_per_batch
        self._providers = {"pool": pool, "fleet": fleet}
        self._local = {
            mode: BoundedPlanExecutor(
                catalog, executor=mode, rows_per_batch=self.rows_per_batch
            )
            for mode in LOCAL_ROUTES
        }

    def run_route(
        self,
        route: str,
        plan: AnyBoundedPlan,
        constants: Optional["Constants"] = None,
    ) -> QueryResult:
        """Run ``plan`` down ``route`` (one of :data:`ROUTES`) with
        ``constants``, a rebound request's constant vector (None: the
        plan's own). A remote route is handed a plan with its constants
        written in: a peer compiles its own skeleton from what it is
        shipped."""
        local = self._local.get(route)
        if local is not None:
            return local.execute(plan, constants)
        start = time.perf_counter()
        provider = self._providers[route]
        peers = provider() if provider is not None else None
        attempted = peers is not None and not peers.closed
        remote = self._run_fleet if route == "fleet" else self._run_pool
        result = remote(peers, plan) if attempted else None
        if result is None:
            # the one fallback edge: whatever a remote route could not
            # serve (no live peer, none idle, a dead one, a corrupt wire,
            # no co-locating replica) runs here, in batches as the peer
            # would have run it — never wrong, only slower
            result = self._local["columnar"].execute(plan, constants)
            if attempted and route == "pool":
                # the outcome is a serial run and must not count
                # toward the pool's mean latency
                result.metrics.pool_fallbacks += 1
                result.metrics.pool_workers = peers.workers
        result.metrics.seconds = time.perf_counter() - start
        return result

    def _run_pool(
        self, pool: "EnginePool", plan: AnyBoundedPlan
    ) -> Optional[QueryResult]:
        """Ship the whole plan to one worker; ``None`` means fall back."""
        snapshot_key, payload_fn = _pool_snapshot(self._catalog)
        outcome = pool.execute_plan(
            snapshot_key, payload_fn, plan, rows_per_batch=self.rows_per_batch
        )
        if outcome is None:
            return None
        columns, rows, metrics, wait = outcome
        metrics.pool_workers = pool.workers
        metrics.pool_batches = metrics.batches
        metrics.pool_wait_seconds = wait
        return QueryResult(columns=columns, rows=rows, metrics=metrics)

    def _run_fleet(
        self, fleet: "ReplicaFleet", plan: AnyBoundedPlan
    ) -> Optional[QueryResult]:
        """Serve the plan from its co-located replica; ``None`` means
        fall back."""
        outcome = fleet.execute_plan(plan, rows_per_batch=self.rows_per_batch)
        if outcome is None:
            return None
        columns, rows, metrics, wire, replica_id = outcome
        metrics.replica_id = replica_id
        metrics.wire_seconds = wire
        return QueryResult(columns=columns, rows=rows, metrics=metrics)


@dataclass(frozen=True)
class RouteChoice:
    """One routing decision: the route and whether it explored."""

    route: str
    explored: bool


class _Mean:
    """The running mean of one (template, signature, route)'s measured
    seconds. It exists from the first time the route is chosen for its
    key; ``count`` stays 0 while no outcome has been observed."""

    __slots__ = ("count", "value")

    def __init__(self) -> None:
        self.count = 0
        self.value = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.value += (seconds - self.value) / self.count


@dataclass
class RouterStats:
    """Counters for one :class:`ExecutorRouter` (a snapshot copy)."""

    decisions: int = 0  # route() calls
    explorations: int = 0  # decisions that explored (untried or epsilon)
    observations: int = 0  # outcomes folded into a mean
    fallback_skips: int = 0  # pooled outcomes ignored (pool fell back)
    templates: int = 0  # distinct template fingerprints seen
    models: int = 0  # (template, signature, route) means with >= 1 sample
    routed: dict[str, int] = field(default_factory=dict)  # decisions per route

    def describe(self) -> str:
        per_route = ", ".join(
            f"{route}={count}" for route, count in sorted(self.routed.items())
        )
        return (
            f"routing: decisions={self.decisions} "
            f"explorations={self.explorations} "
            f"observations={self.observations} "
            f"fallback_skips={self.fallback_skips} "
            f"templates={self.templates} models={self.models}\n"
            f"routing: per-route [{per_route or '-'}]"
        )


class ExecutorRouter:
    """Lowest measured mean per (template, signature), epsilon-greedy.

    Each route is tried once per key, then the route with the lowest
    mean wins, except for an ``epsilon`` share of decisions that re-sample
    a random route so a changed workload is re-learned. A route that has
    been tried but never yielded a sample (every pool run fell back) is
    left out of the argmin rather than tried again.

    Thread-safe: the serving layer calls it from many request threads.
    The RNG is seeded so fuzz suites replay exploration deterministically.
    """

    #: the epsilon-greedy exploration rate (settable per router through
    #: :attr:`epsilon`)
    EPSILON = 0.1

    def __init__(self) -> None:
        self._epsilon = self.EPSILON
        self._rng = random.Random(0)
        self._lock = threading.Lock()
        #: (template, signature) -> route -> its mean, once tried
        self._means: dict[tuple[str, tuple], dict[str, _Mean]] = {}
        self._templates: set[str] = set()
        self._decisions = 0
        self._explorations = 0
        self._observations = 0
        self._fallback_skips = 0
        self._routed: dict[str, int] = {}

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @epsilon.setter
    def epsilon(self, value: float) -> None:
        self._epsilon = validate_routing_epsilon(value)

    def route(
        self, template: str, signature: tuple, routes: Sequence[str]
    ) -> RouteChoice:
        """Pick one of ``routes`` (:func:`allowed_routes`) for one covered
        execution of a binding of ``template`` with ``signature``
        (``PreparedBinding.signature``)."""
        with self._lock:
            self._templates.add(template)
            self._decisions += 1
            means = self._means.setdefault((template, signature), {})
            choice = self._pick(means, routes)
            means.setdefault(choice.route, _Mean())  # tried from now on
            self._routed[choice.route] = self._routed.get(choice.route, 0) + 1
            if choice.explored:
                self._explorations += 1
            return choice

    def _pick(self, means: dict[str, _Mean], routes: Sequence[str]) -> RouteChoice:
        # every route gets tried once per key before the means vote
        for route in routes:
            if route not in means:
                return RouteChoice(route, explored=True)
        if self._epsilon > 0.0 and self._rng.random() < self._epsilon:
            return RouteChoice(self._rng.choice(routes), explored=True)
        sampled = [route for route in routes if means[route].count]
        if not sampled:
            return RouteChoice(routes[0], explored=False)
        return RouteChoice(
            min(sampled, key=lambda route: means[route].value), explored=False
        )

    def observe(
        self,
        template: str,
        signature: tuple,
        route: str,
        metrics: "ExecutionMetrics",
    ) -> None:
        """Fold one observed execution's seconds into its route's mean.

        A pool outcome that fell back in-process is skipped: its latency
        describes a serial run, and counting it toward the pool's mean
        would poison every later pick.
        """
        with self._lock:
            if route == "pool" and metrics.pool_fallbacks > 0:
                self._fallback_skips += 1
                return
            means = self._means.setdefault((template, signature), {})
            means.setdefault(route, _Mean()).add(metrics.seconds)
            self._observations += 1

    def stats(self) -> RouterStats:
        with self._lock:
            return RouterStats(
                decisions=self._decisions,
                explorations=self._explorations,
                observations=self._observations,
                fallback_skips=self._fallback_skips,
                templates=len(self._templates),
                models=sum(
                    1
                    for means in self._means.values()
                    for mean in means.values()
                    if mean.count
                ),
                routed=dict(self._routed),
            )
