"""``AsyncBEASServer``: the asyncio front end over one Session.

Many concurrent asyncio clients multiplex onto a bounded pool of worker
threads driving one :class:`~repro.beas.session.Session` (its reads are
that session's requests; its writes are the session's engine's,
:meth:`~repro.beas.system.BEAS.insert` / ``delete``):

* **Bounded worker pool** — queries run in a
  ``ThreadPoolExecutor`` sized to the host, so a burst of clients
  cannot oversubscribe the in-memory engines;
* **Admission control** — an ``asyncio`` semaphore bounds in-flight
  executes, shedding queueing into the event loop where awaiting is
  cheap, instead of into blocked threads;
* **Per-shard maintenance queues** — updates for one table are funneled
  through that table's FIFO queue and applied by a single drainer, so
  writers to the same table never contend on its write lock while
  writers to different tables proceed in parallel;
* **Batched admission of maintenance** — a drainer takes whatever jobs
  are pending for its table and applies them in one worker-thread hop,
  amortising executor latency while preserving per-batch atomicity
  (REJECT semantics are per submitted batch, exactly as in the
  synchronous API).
* **Engine-pool dispatch** — when the underlying BEAS was built with
  ``parallelism >= 2``, each worker thread's bounded execution ships its
  plan to a :class:`~repro.engine.pool.EnginePool` worker *process*, so
  concurrent CPU-bound clients escape the GIL instead of time-slicing
  it; the pool's counters surface through ``stats().serving.pool``.

Typical use (via :meth:`repro.beas.session.Session.serve_async`)::

    async with session.serve_async() as aserver:
        results = await asyncio.gather(
            *(aserver.execute(sql) for sql in queries)
        )
        await aserver.insert("call", rows)       # queued per table
        print((await aserver.stats()).describe())
"""

from __future__ import annotations

import asyncio
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Mapping, Optional, Union

from repro.errors import ServingError
from repro.serving.prepared import PreparedQuery
from repro.serving.server import ServingStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.beas.session import Result, Session
    from repro.maintenance.incremental import UpdateBatch


def _default_workers() -> int:
    return min(8, (os.cpu_count() or 2) + 2)


@dataclass
class _MaintenanceJob:
    kind: str  # "insert" | "delete"
    table: str
    rows: Any
    options: dict[str, Any]
    future: "asyncio.Future[UpdateBatch]"


@dataclass
class AsyncServingStats:
    """Front-end counters layered over ``ServingStats``."""

    serving: ServingStats
    workers: int = 0
    in_flight: int = 0
    peak_in_flight: int = 0
    queued_maintenance: dict[str, int] = field(default_factory=dict)
    drained_batches: int = 0
    drained_jobs: int = 0

    def describe(self) -> str:
        backlog = (
            ", ".join(
                f"{table}:{depth}"
                for table, depth in sorted(self.queued_maintenance.items())
                if depth
            )
            or "(empty)"
        )
        lines = [
            "async front end:",
            f"  workers: {self.workers}, in flight: {self.in_flight} "
            f"(peak {self.peak_in_flight})",
            f"  maintenance queues: {backlog}; drained "
            f"{self.drained_jobs} jobs in {self.drained_batches} passes",
            self.serving.describe(),
        ]
        return "\n".join(lines)


class AsyncBEASServer:
    """Asyncio facade over one :class:`~repro.beas.session.Session`."""

    def __init__(
        self,
        session: "Session",
        *,
        max_workers: Optional[int] = None,
        admission_limit: Optional[int] = None,
    ):
        self._session = session
        self._beas = session.beas
        self._workers = max_workers or _default_workers()
        self._pool = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="beas-serve"
        )
        self._admission_limit = admission_limit or 2 * self._workers
        self._admission = asyncio.Semaphore(self._admission_limit)
        self._queues: dict[str, asyncio.Queue[_MaintenanceJob]] = {}
        self._drainers: dict[str, asyncio.Task] = {}
        self._in_flight = 0
        self._peak_in_flight = 0
        self._drained_batches = 0
        self._drained_jobs = 0
        # drain counters are bumped from worker-pool threads (one per
        # table's drainer can run concurrently)
        self._counter_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    @property
    def session(self) -> "Session":
        return self._session

    async def __aenter__(self) -> "AsyncBEASServer":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Drain every maintenance queue, then shut the pool down."""
        self._closed = True
        drainers = list(self._drainers.values())
        for queue in self._queues.values():
            await queue.join()
        for task in drainers:
            task.cancel()
        for task in drainers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    async def _run(self, fn) -> Any:
        if self._closed:
            raise ServingError("AsyncBEASServer is closed")
        async with self._admission:
            # re-checked after the semaphore: a caller parked here while
            # aclose() shut the pool down must get the documented error,
            # not the executor's raw RuntimeError
            if self._closed:
                raise ServingError("AsyncBEASServer is closed")
            self._in_flight += 1
            self._peak_in_flight = max(self._peak_in_flight, self._in_flight)
            try:
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(self._pool, fn)
            except RuntimeError as error:
                if self._closed:  # pool shut down between check and submit
                    raise ServingError("AsyncBEASServer is closed") from error
                raise
            finally:
                self._in_flight -= 1

    async def execute(self, query, **options) -> "Result":
        """``Session.run(query, **options)`` on a worker thread:
        ``options`` (an ``options=`` layer and/or keyword fields) are the
        call layer."""
        return await self._run(partial(self._session.run, query, **options))

    async def execute_prepared(
        self,
        prepared: Union[str, PreparedQuery],
        params: Optional[Mapping[str, Any]] = None,
        **options,
    ) -> "Result":
        """``Query.run(**options)`` for one binding of a template the
        session's engine prepared (by handle or name)."""
        # imported here: the engine imports this package, and the
        # session module imports the engine
        from repro.beas.session import Query

        if isinstance(prepared, str):
            prepared = self._beas.prepared(prepared)
        query = Query(self._session, prepared, params)
        return await self._run(partial(query.run, **options))

    # ------------------------------------------------------------------ #
    # maintenance: one FIFO queue + drainer per table
    # ------------------------------------------------------------------ #
    async def insert(
        self, table_name: str, rows, *, adjust_bounds: bool = False
    ) -> "UpdateBatch":
        return await self._enqueue(
            "insert", table_name, rows, {"adjust_bounds": adjust_bounds}
        )

    async def delete(self, table_name: str, rows) -> "UpdateBatch":
        return await self._enqueue("delete", table_name, rows, {})

    async def _enqueue(
        self, kind: str, table: str, rows, options: dict[str, Any]
    ) -> "UpdateBatch":
        if self._closed:
            raise ServingError("AsyncBEASServer is closed")
        loop = asyncio.get_running_loop()
        job = _MaintenanceJob(kind, table, rows, options, loop.create_future())
        queue = self._queues.get(table)
        if queue is None:
            queue = self._queues.setdefault(table, asyncio.Queue())
        await queue.put(job)
        if table not in self._drainers or self._drainers[table].done():
            self._drainers[table] = loop.create_task(
                self._drain(table, queue), name=f"beas-maint-{table}"
            )
        return await job.future

    async def _drain(self, table: str, queue: "asyncio.Queue") -> None:
        loop = asyncio.get_running_loop()
        while True:
            jobs = [await queue.get()]
            # batched admission: take whatever else is already pending for
            # this table and apply the lot in one worker-thread hop
            while True:
                try:
                    jobs.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            try:
                await loop.run_in_executor(
                    self._pool, partial(self._apply_jobs, jobs)
                )
            finally:
                for _ in jobs:
                    queue.task_done()

    def _apply_jobs(self, jobs: list[_MaintenanceJob]) -> None:
        """Worker-thread side: apply each job, settling its future.

        Jobs for one table run back to back under one queue, preserving
        submission order; each keeps its own atomicity (a REJECTed batch
        fails alone — later jobs still apply).
        """
        loop = jobs[0].future.get_loop()
        # counted before the futures settle, so a caller awaiting a batch
        # observes the drain that produced it
        with self._counter_lock:
            self._drained_batches += 1
            self._drained_jobs += len(jobs)
        for job in jobs:
            try:
                if job.kind == "insert":
                    batch = self._beas.insert(job.table, job.rows, **job.options)
                else:
                    batch = self._beas.delete(job.table, job.rows)
            except BaseException as error:  # noqa: BLE001 - relayed to caller
                loop.call_soon_threadsafe(_settle, job.future, None, error)
            else:
                loop.call_soon_threadsafe(_settle, job.future, batch, None)

    # ------------------------------------------------------------------ #
    async def stats(self) -> AsyncServingStats:
        serving = await self._run(self._beas.stats)
        with self._counter_lock:
            drained_batches = self._drained_batches
            drained_jobs = self._drained_jobs
        return AsyncServingStats(
            serving=serving,
            workers=self._workers,
            in_flight=self._in_flight,
            peak_in_flight=self._peak_in_flight,
            queued_maintenance={
                table: queue.qsize() for table, queue in self._queues.items()
            },
            drained_batches=drained_batches,
            drained_jobs=drained_jobs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AsyncBEASServer(workers={self._workers}, "
            f"in_flight={self._in_flight})"
        )


def _settle(future: "asyncio.Future", result, error) -> None:
    if future.cancelled():
        return
    if error is not None:
        future.set_exception(error)
    else:
        future.set_result(result)
