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
* :class:`ExecutorRouter` is the learned pick: one lightweight cost
  model per (template fingerprint, route), trained online from observed
  ``ExecutionMetrics.seconds``, with epsilon-greedy exploration
  (maliva's one-model-per-plan shape, fitted incrementally instead of
  offline). A wrong prediction costs latency, never correctness.

Features come from the paper's §3 deduced bounds (the access bound is
known *before* execution), the binding's constant arity, estimated
equality selectivity from :mod:`repro.catalog.statistics`, and the
engine shape (``rows_per_batch``, ``parallelism``). Costs are wall
seconds; models are incremental ridge regressions over the feature
vector (normal equations, exact solve — the dimension is tiny). What
the result cache keeps is not decided here: it retains by each answer's
measured cost (``serving.cache.ResultCache``) under every routing mode.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro import config
from repro.bounded.executor import BoundedPlanExecutor
from repro.bounded.optimizer import PartialPlan
from repro.bounded.plan import AnyBoundedPlan, BoundedPlan
from repro.engine.columnar import resolve_rows_per_batch
from repro.engine.executor import QueryResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.access.catalog import ASCatalog
    from repro.beas.session import ExecutionOptions
    from repro.beas.system import BEAS
    from repro.catalog.statistics import TableStatistics
    from repro.distributed.fleet import ReplicaFleet
    from repro.engine.metrics import ExecutionMetrics
    from repro.engine.pool import EnginePool

#: Every route, in the order learned routing explores them. ``row`` and
#: ``columnar`` run in-process; ``pool`` and ``fleet`` ship the plan to a
#: peer process that runs it in columnar mode.
ROUTES = ("row", "columnar", "pool", "fleet")
LOCAL_ROUTES = ("row", "columnar")


def allowed_routes(
    options: "ExecutionOptions",
    engine: "BEAS",
    plan: "AnyBoundedPlan | PartialPlan",
) -> tuple[str, ...]:
    """The routes this request may take, preferred first.

    ``options`` gives the request's ``executor`` and ``routing``,
    ``engine`` says which peers exist (``parallelism >= 2``: a pool,
    ``replicas >= 2``: a fleet), and ``plan`` is what is about to run: a
    covered :class:`BoundedPlan`, a covered set operation, or the
    :class:`PartialPlan` whose bounded prefix is.
    """
    pooled = engine.parallelism >= 2
    if isinstance(plan, PartialPlan):
        # a PARTIAL prefix never goes to the fleet: its rows come back to
        # join the residual scan here
        return ("pool",) if pooled else (options.executor,)
    if not isinstance(plan, BoundedPlan):
        # a set operation's branches are combined in-process; an engine
        # with a pool runs them in batches, as its workers would
        return ("columnar",) if pooled else (options.executor,)
    if engine.replicas >= 2:
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
    paper's Fig. 1, wherever the plan physically runs."""

    def __init__(
        self,
        catalog: "ASCatalog",
        *,
        dedup_keys: bool = False,
        rows_per_batch: Optional[int] = None,
        pool: Optional[Callable[[], Optional["EnginePool"]]] = None,
        fleet: Optional[Callable[[], Optional["ReplicaFleet"]]] = None,
    ):
        """``pool`` and ``fleet`` are zero-argument providers of the live
        peers (or ``None``): BEAS passes its lazy spawners, so processes
        start only when a remote route actually runs."""
        self._catalog = catalog
        self._dedup_keys = dedup_keys
        self.rows_per_batch = resolve_rows_per_batch(rows_per_batch)
        self._providers = {"pool": pool, "fleet": fleet}
        self._local = {
            mode: BoundedPlanExecutor(
                catalog,
                dedup_keys=dedup_keys,
                executor=mode,
                rows_per_batch=self.rows_per_batch,
            )
            for mode in LOCAL_ROUTES
        }

    def run_route(self, route: str, plan: AnyBoundedPlan) -> QueryResult:
        """Run ``plan`` down ``route`` (one of :data:`ROUTES`)."""
        local = self._local.get(route)
        if local is not None:
            return local.execute(plan)
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
            result = self._local["columnar"].execute(plan)
            if attempted and route == "pool":
                # the outcome is a serial run and must not train the
                # pool's cost model
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
            snapshot_key,
            payload_fn,
            plan,
            dedup=self._dedup_keys,
            rows_per_batch=self.rows_per_batch,
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
        outcome = fleet.execute_plan(
            plan, dedup=self._dedup_keys, rows_per_batch=self.rows_per_batch
        )
        if outcome is None:
            return None
        columns, rows, metrics, wire, replica_id = outcome
        metrics.replica_id = replica_id
        metrics.wire_seconds = wire
        return QueryResult(columns=columns, rows=rows, metrics=metrics)


#: Feature vector layout (kept in one place so tests can assert on it).
FEATURE_NAMES = (
    "bias",
    "log1p_access_bound",
    "log1p_tight_access_bound",
    "fetch_ops",
    "select_ops",
    "log1p_const_key_arity",
    "log1p_estimated_rows",
    "log1p_rows_per_batch",
    "log1p_parallelism",
)

_RIDGE_LAMBDA = 1e-3


def routing_features(
    plan: "BoundedPlan",
    statistics: dict[str, "TableStatistics"],
    *,
    rows_per_batch: int,
    parallelism: int,
) -> tuple[float, ...]:
    """The router's feature vector for one covered bounded plan.

    Pure over its inputs: the deduced bounds and key arities come from
    the (possibly rebound) plan, the selectivity estimate from the
    catalog statistics observed under the current read locks.
    """
    fetch_ops = plan.fetch_ops
    select_ops = len(plan.ops) - len(fetch_ops)
    const_arity = 0
    estimated_rows = 0.0
    for op in fetch_ops:
        stats = statistics.get(op.constraint.relation)
        op_selectivity = 1.0
        keyed_on_const = False
        for part in op.key_parts:
            if part.source != "const":
                continue
            arity = len(part.values or ())
            const_arity += arity
            if stats is not None and stats.row_count:
                per_value = stats.column(part.attribute).selectivity_of_equality(
                    stats.row_count
                )
                op_selectivity *= min(1.0, per_value * max(1, arity))
                keyed_on_const = True
        if keyed_on_const and stats is not None:
            estimate = stats.row_count * op_selectivity
            if op.access_bound:
                estimate = min(estimate, float(op.access_bound))
            estimated_rows += estimate
        else:
            estimated_rows += float(op.access_bound)
    return (
        1.0,
        math.log1p(max(0, plan.access_bound)),
        math.log1p(max(0, plan.tight_access_bound)),
        float(len(fetch_ops)),
        float(select_ops),
        math.log1p(const_arity),
        math.log1p(max(0.0, estimated_rows)),
        math.log1p(max(0, rows_per_batch)),
        math.log1p(max(0, parallelism)),
    )


class _Regressor:
    """Incremental ridge regression via normal equations.

    Accumulates ``A = X'X + lambda*I`` and ``b = X'y``; solving the
    d x d system (d = 9) by Gaussian elimination per prediction is
    cheap and exact, and never needs the sample history.
    """

    __slots__ = ("dim", "count", "_a", "_b", "_theta", "_stale")

    #: Refit cadence once a model has matured: the d x d solve is the
    #: expensive step on the serving hot path, and after the first few
    #: observations each additional sample barely moves theta.
    _REFIT_EVERY = 8
    _ALWAYS_REFIT_BELOW = 16

    def __init__(self, dim: int) -> None:
        self.dim = dim
        self.count = 0
        self._a = [
            [_RIDGE_LAMBDA if i == j else 0.0 for j in range(dim)]
            for i in range(dim)
        ]
        self._b = [0.0] * dim
        self._theta: Optional[list[float]] = None
        self._stale = 0

    def update(self, features: Sequence[float], target: float) -> None:
        for i, fi in enumerate(features):
            row = self._a[i]
            for j, fj in enumerate(features):
                row[j] += fi * fj
            self._b[i] += fi * target
        self.count += 1
        self._stale += 1
        if (
            self.count <= self._ALWAYS_REFIT_BELOW
            or self._stale >= self._REFIT_EVERY
        ):
            self._theta = None
            self._stale = 0

    def predict(self, features: Sequence[float]) -> Optional[float]:
        if self.count == 0:
            return None
        theta = self._solve()
        if theta is None:
            return None
        return sum(t * f for t, f in zip(theta, features))

    def _solve(self) -> Optional[list[float]]:
        if self._theta is not None:
            return self._theta
        n = self.dim
        a = [row[:] for row in self._a]
        b = self._b[:]
        for col in range(n):
            pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
            if abs(a[pivot][col]) < 1e-12:
                return None
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                b[col], b[pivot] = b[pivot], b[col]
            inv = 1.0 / a[col][col]
            for r in range(col + 1, n):
                factor = a[r][col] * inv
                if factor == 0.0:
                    continue
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
                b[r] -= factor * b[col]
        theta = [0.0] * n
        for r in range(n - 1, -1, -1):
            acc = b[r] - sum(a[r][c] * theta[c] for c in range(r + 1, n))
            theta[r] = acc / a[r][r]
        self._theta = theta
        return theta


@dataclass(frozen=True)
class RouteChoice:
    """One routing decision: the route and whether it explored."""

    route: str
    explored: bool


@dataclass
class RouterStats:
    """Counters for one :class:`ExecutorRouter` (a snapshot copy)."""

    decisions: int = 0  # route() calls
    explorations: int = 0  # decisions that explored (unseen or epsilon)
    observations: int = 0  # outcomes trained into a model
    fallback_skips: int = 0  # pooled outcomes ignored (pool fell back)
    templates: int = 0  # distinct template fingerprints seen
    models: int = 0  # (template, route) models with >= 1 sample
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
    """Online per-(template, route) cost model with epsilon-greedy routing.

    Thread-safe: the serving layer calls it from many request threads.
    The RNG is seeded so fuzz suites replay exploration deterministically.
    """

    def __init__(
        self, *, epsilon: Optional[float] = None, seed: int = 0
    ) -> None:
        if epsilon is None:
            epsilon = config.DEFAULT_ROUTING_EPSILON
        self._epsilon = config.validate_routing_epsilon(epsilon)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._models: dict[tuple[str, str], _Regressor] = {}
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
        self._epsilon = config.validate_routing_epsilon(value)

    def route(
        self, template: str, features: Sequence[float], routes: Sequence[str]
    ) -> RouteChoice:
        """Pick one of ``routes`` (:func:`allowed_routes`) for one covered
        execution of ``template``."""
        with self._lock:
            self._templates.add(template)
            self._decisions += 1
            choice = self._pick(template, features, routes)
            self._routed[choice.route] = self._routed.get(choice.route, 0) + 1
            if choice.explored:
                self._explorations += 1
            return choice

    def _pick(
        self, template: str, features: Sequence[float], routes: Sequence[str]
    ) -> RouteChoice:
        # every route gets tried once per template before the model votes
        for route in routes:
            model = self._models.get((template, route))
            if model is None or model.count == 0:
                return RouteChoice(route, explored=True)
        if self._epsilon > 0.0 and self._rng.random() < self._epsilon:
            return RouteChoice(self._rng.choice(routes), explored=True)
        best_route = routes[0]
        best_cost: Optional[float] = None
        for route in routes:
            predicted = self._models[(template, route)].predict(features)
            if predicted is None:
                continue
            if best_cost is None or predicted < best_cost:
                best_cost = predicted
                best_route = route
        return RouteChoice(best_route, explored=False)

    def observe(
        self,
        template: str,
        route: str,
        features: Sequence[float],
        metrics: "ExecutionMetrics",
    ) -> None:
        """Train the (template, route) model on one observed execution.

        A pool outcome that fell back in-process is skipped: its latency
        describes a serial run, and training the pool's model on it would
        poison every later prediction.
        """
        with self._lock:
            if route == "pool" and metrics.pool_fallbacks > 0:
                self._fallback_skips += 1
                return
            key = (template, route)
            model = self._models.get(key)
            if model is None:
                model = self._models[key] = _Regressor(len(FEATURE_NAMES))
            model.update(features, metrics.seconds)
            self._observations += 1

    def stats(self) -> RouterStats:
        with self._lock:
            return RouterStats(
                decisions=self._decisions,
                explorations=self._explorations,
                observations=self._observations,
                fallback_skips=self._fallback_skips,
                templates=len(self._templates),
                models=sum(1 for m in self._models.values() if m.count),
                routed=dict(self._routed),
            )
