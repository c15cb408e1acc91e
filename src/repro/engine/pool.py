"""Multiprocessing engine pool for parallel bounded execution.

The columnar executor (PR 3) cut single-thread compute 2-3x, but every
bounded plan still runs on one GIL-bound thread: concurrent clients of
the serving layer serialise on the interpreter even when their queries
touch disjoint data. The :class:`EnginePool` breaks that ceiling by
executing bounded work on **worker processes**:

* **Whole-plan dispatch** — an independent covered query ships its
  :class:`~repro.bounded.plan.BoundedPlan` to one worker, which runs the
  full columnar pipeline (fetch/select + batch tail) and returns rows +
  metrics. This is the serving layer's fan-out unit: N client threads
  drive N workers concurrently, each outside the parent's GIL.
* **Warm catalog snapshots** — each worker holds the access indices
  (``ASCatalog.index_map()``) keyed by a *snapshot key*: the access
  schema generation plus the per-table data version vector. A task
  carries the key it was planned under; a worker whose installed
  snapshot differs answers ``stale`` and the master re-sends the
  snapshot before retrying, so a worker can never compute over data the
  master has since mutated. Workers hold **only** indices — they have no
  base tables, so like the paper's bounded plans they physically cannot
  scan.
* **Graceful fallback** — no pool, no idle worker, a dead worker, or a
  plan outside the parallelisable fragment all fall back to in-process
  execution. Answers are never wrong, only slower; the chaos suite
  (``tests/test_pool_chaos.py``) locks this in.

The §3 bound arithmetic is enforced by the worker that runs the plan,
exactly as in-process; a bound violation is relayed and re-raised.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue
import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro import config
from repro.errors import BEASError

# the snapshot-protocol vocabulary is shared with the serving fleet
# (repro.distributed): one set of task kinds, reply tags, and one
# stale-retry state machine for the pipe wire and the socket wire alike
from repro.distributed.protocol import (
    MSG_DEBUG,
    MSG_EXIT,
    MSG_PING,
    MSG_PLAN,
    MSG_SNAPSHOT,
    MSG_SNAPSHOT_SHM,
    REPLY_OK,
    REPLY_PONG,
    REPLY_RAISE,
    REPLY_RESULT,
    REPLY_SHM_FAILED,
    REPLY_STALE,
    REPLY_UNSUPPORTED,
    StalePeer,
    compute_with_stale_retry,
    run_plan_task,
)


def resolve_parallelism(parallelism: Optional[int]) -> int:
    """Resolve the worker-process count: explicit argument, else the
    ``BEAS_PARALLELISM`` environment variable, else 1 (in-process).

    Explicit values must be positive integers (1 = in-process, >= 2
    enables the pool); anything else raises
    :class:`~repro.errors.BEASError` at construction time (the
    environment is validated by :mod:`repro.config`).
    """
    if parallelism is None:
        return config.env_parallelism() or 1
    return config.validate_parallelism(parallelism)


# --------------------------------------------------------------------------- #
# worker process
# --------------------------------------------------------------------------- #
def _worker_main(conn) -> None:  # pragma: no cover - runs in a subprocess
    """Worker loop: install snapshots, execute plan tasks.

    Every compute task carries the snapshot key it was planned under; a
    mismatch with the installed snapshot answers ``("stale", installed)``
    instead of computing — the master re-sends the snapshot and retries.
    """
    installed_key: Optional[tuple] = None
    indexes: dict = {}
    shm_handle = None  # the attached SharedMemory backing mapped indices
    die_next = False
    # decided once, before any shm attach: whether this worker runs its
    # own resource tracker (spawn) or shares the master's (fork)
    private_tracker = not _tracker_is_inherited()
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        kind = task[0]
        if kind == MSG_EXIT:
            conn.close()
            return
        if kind == MSG_PING:
            conn.send((REPLY_PONG, os.getpid()))
            continue
        if kind == MSG_DEBUG:
            action = task[1]
            if action == "die":
                os._exit(17)
            if action == "die_on_next_task":
                die_next = True
                conn.send((REPLY_OK,))
            elif action == "sleep":
                time.sleep(task[2])
                conn.send((REPLY_OK,))
            elif action == "set_snapshot_key":
                # chaos hook: make the installed snapshot *claim* a key
                # without holding its data — simulates a worker whose
                # snapshot silently went stale
                installed_key = task[2]
                conn.send((REPLY_OK,))
            else:
                conn.send(
                    (REPLY_UNSUPPORTED, f"unknown debug action {action!r}")
                )
            continue
        if kind == MSG_SNAPSHOT:
            installed_key = task[1]
            indexes = task[2]
            if shm_handle is not None:
                # the pickle wire replaced a shared-memory snapshot: the
                # mapped indices are gone with the dict, so the attachment
                # can be dropped (unlinking is the master's job)
                previous, shm_handle = shm_handle, None
                try:
                    previous.close()
                except (BufferError, OSError):
                    pass
            conn.send((REPLY_OK,))
            continue
        if kind == MSG_SNAPSHOT_SHM:
            try:
                new_indexes, handle = _attach_shm_snapshot(
                    task[2], unregister=private_tracker
                )
            except Exception as error:  # noqa: BLE001 - any attach failure reports back and the master falls back to the pickle wire
                conn.send((REPLY_SHM_FAILED, repr(error)))
                continue
            installed_key = task[1]
            indexes = new_indexes
            previous, shm_handle = shm_handle, handle
            if previous is not None:
                try:
                    previous.close()
                except (BufferError, OSError):
                    pass
            conn.send((REPLY_OK,))
            continue
        if die_next:
            os._exit(17)
        expected_key = task[1]
        if expected_key != installed_key:
            conn.send((REPLY_STALE, installed_key))
            continue
        if kind == MSG_PLAN:
            conn.send(run_plan_task(indexes, task))
        else:
            conn.send((REPLY_UNSUPPORTED, f"unknown task kind {kind!r}"))


def _tracker_is_inherited() -> bool:  # pragma: no cover - subprocess
    """True when this worker shares the master's resource tracker.

    Under ``fork``/``forkserver`` the tracker process (and its pipe fd)
    is inherited, so register/unregister messages land in the SAME
    bookkeeping set the master uses; under ``spawn`` the module state is
    fresh and the first registration starts a private tracker.
    """
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_fd", None) is not None


def _attach_shm_snapshot(name: str, *, unregister: bool):  # pragma: no cover - subprocess
    """Attach one exported snapshot block and open its mapped indices.

    The handle must outlive the indices (their buckets decode lazily
    from ``handle.buf``), so it is returned to the worker loop, which
    closes the *previous* attachment only after replacing the index
    dict. Never unlinks: the block's lifetime belongs to the master's
    exporter.
    """
    from multiprocessing import resource_tracker, shared_memory

    from repro.storage.mmapstore import decode_snapshot

    handle = shared_memory.SharedMemory(name=name)
    if unregister:
        # attaching registers the block with this worker's PRIVATE
        # resource tracker as if the worker owned it (bpo-38119);
        # unregister, or the tracker unlinks a block the master still
        # serves and warns about it at shutdown. With an INHERITED
        # (shared) tracker the registration is the master's own and must
        # stay — removing it here makes the master's eventual unlink a
        # double-remove the tracker reports as a KeyError.
        try:
            resource_tracker.unregister(handle._name, "shared_memory")
        except Exception:  # noqa: BLE001 - tracker bookkeeping only; never fail the attach over it
            pass
    try:
        indexes = decode_snapshot(handle.buf)
    except Exception:  # noqa: BLE001 - close the mapping on ANY decode failure, then re-raise for the fallback reply
        try:
            handle.close()
        except (BufferError, OSError):
            pass
        raise
    return indexes, handle


# --------------------------------------------------------------------------- #
# the pool
# --------------------------------------------------------------------------- #
@dataclass
class PoolStats:
    """Cumulative counters for one :class:`EnginePool`."""

    workers: int = 0
    alive: int = 0
    plans_dispatched: int = 0
    snapshots_sent: int = 0
    snapshot_bytes_shipped: int = 0  # wire bytes per install (shm: name only)
    shm_attaches: int = 0
    shm_fallbacks: int = 0  # shm offered but the pickle wire was used
    stale_retries: int = 0
    worker_deaths: int = 0
    respawns: int = 0
    exhaustion_fallbacks: int = 0
    fallbacks: int = 0  # tasks that fell back in-process for any reason
    wait_seconds: float = 0.0  # total time spent acquiring workers

    def describe(self) -> str:
        return (
            f"engine pool: {self.alive}/{self.workers} workers alive, "
            f"{self.plans_dispatched} plans dispatched, "
            f"{self.snapshots_sent} snapshots sent "
            f"({self.snapshot_bytes_shipped} B shipped, {self.shm_attaches} "
            f"shm attaches, {self.shm_fallbacks} shm fallbacks), "
            f"{self.stale_retries} stale retries, {self.worker_deaths} "
            f"deaths ({self.respawns} respawns), {self.fallbacks} "
            f"fallbacks ({self.exhaustion_fallbacks} on exhaustion), "
            f"waited {self.wait_seconds * 1000:.2f} ms"
        )


class _Worker:
    """One worker process plus the master-side bookkeeping for it."""

    __slots__ = ("process", "conn", "snapshot_key", "alive")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.snapshot_key: Optional[tuple] = None
        self.alive = True


class _WorkerDied(Exception):
    """Internal: the worker's pipe broke mid-roundtrip."""


class EnginePool:
    """A fixed set of worker processes executing bounded work.

    Thread-safe: any number of serving threads may acquire workers
    concurrently; each worker runs one task at a time. Workers are
    daemonic, so an abandoned pool cannot outlive the interpreter, and
    :meth:`close` shuts them down deterministically.
    """

    def __init__(
        self,
        workers: int,
        *,
        start_method: Optional[str] = None,
        acquire_timeout: float = 0.05,
        task_timeout: float = 120.0,
        snapshot_exporter: Optional[
            Callable[[tuple, Callable[[], dict]], Optional[str]]
        ] = None,
    ):
        """``acquire_timeout`` bounds the wait for an idle worker before
        falling back in-process; ``task_timeout`` bounds one task's
        roundtrip — a worker that is alive but wedged past it is
        terminated and treated as dead (fallback + respawn), so a hung
        worker can never hang a client thread.

        ``snapshot_exporter`` (the mmap storage engine's
        :meth:`~repro.storage.mmapstore.MmapStore.snapshot_exporter`)
        turns a snapshot key into a named ``multiprocessing.shared_memory``
        block holding the encoded index segments; workers then attach it
        zero-copy instead of receiving the pickled index map. ``None``
        from the exporter, or a failed attach on the worker, falls back
        to the pickle wire within the same install."""
        if not isinstance(workers, int) or isinstance(workers, bool):
            raise BEASError(
                f"pool workers must be an int, got {type(workers).__name__}"
            )
        if workers < 1:
            raise BEASError(f"pool workers must be >= 1, got {workers}")
        # 'fork' where available: worker startup is milliseconds and the
        # children run nothing but already-imported repro code over their
        # pipe (no exec, no logging, no new imports), which sidesteps the
        # classic fork-with-threads hazards. 'forkserver' measured ~0.5 s
        # per pool here (each worker re-imports the package); set
        # BEAS_POOL_START_METHOD=forkserver/spawn to trade startup time
        # for full isolation.
        method = start_method or config.env_pool_start_method()
        if method is None:
            available = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in available else "spawn"
        self._context = multiprocessing.get_context(method)
        self._snapshot_exporter = snapshot_exporter
        self.workers = workers
        self.acquire_timeout = acquire_timeout
        self.task_timeout = task_timeout
        self._idle: "queue.Queue[_Worker]" = queue.Queue()
        self._lock = threading.Lock()
        self._stats = PoolStats(workers=workers)
        self._all: list[_Worker] = []
        self._closed = False
        for _ in range(workers):
            self._idle.put(self._spawn())

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn,),
            name="beas-pool-worker",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn)
        with self._lock:
            if self._closed:
                # close() ran while we were forking: this worker would be
                # orphaned (close() already swept _all), so shut it down
                # here and hand back a dead handle the callers discard
                closing = True
            else:
                closing = False
                self._all.append(worker)
        if closing:
            self._shutdown_worker(worker)
        return worker

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut down idle workers; acquired ones exit when released.

        Only workers sitting in the idle queue have their connection
        touched here — a connection is not thread-safe, and an acquired
        worker's pipe belongs to the dispatching thread until it calls
        :meth:`release` (which, on a closed pool, performs the same
        shutdown from the owning thread).
        """
        self._closed = True
        idle: list[_Worker] = []
        while True:
            try:
                idle.append(self._idle.get_nowait())
            except queue.Empty:
                break
        with self._lock:
            self._all.clear()
        for worker in idle:
            self._shutdown_worker(worker)

    def _shutdown_worker(self, worker: _Worker) -> None:
        """Exit one worker from the thread that owns its connection."""
        if worker.alive:
            try:
                worker.conn.send((MSG_EXIT,))
            except (OSError, ValueError):
                pass
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        worker.process.join(timeout=2.0)
        if worker.process.is_alive():  # pragma: no cover - stuck worker
            worker.process.terminate()
            worker.process.join(timeout=1.0)
        worker.alive = False

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-time best effort
        try:
            if not self._closed:
                self.close()
        except Exception:  # beaslint: ok(except-discipline) - GC-time best effort; __del__ must never raise
            pass

    # ------------------------------------------------------------------ #
    # worker acquisition
    # ------------------------------------------------------------------ #
    def acquire(self, timeout: Optional[float] = None) -> Optional[_Worker]:
        """An idle worker, or ``None`` when the pool is exhausted/closed.

        The wait is counted into the pool's ``wait_seconds``. Dead
        workers found in the queue are respawned transparently.
        """
        if self._closed:
            return None
        if timeout is None:
            timeout = self.acquire_timeout
        start = time.perf_counter()
        try:
            if timeout <= 0:
                worker = self._idle.get_nowait()
            else:
                worker = self._idle.get(timeout=timeout)
        except queue.Empty:
            with self._lock:
                self._stats.wait_seconds += time.perf_counter() - start
                self._stats.exhaustion_fallbacks += 1
            return None
        with self._lock:
            self._stats.wait_seconds += time.perf_counter() - start
        if not worker.alive or not worker.process.is_alive():
            self._note_death(worker)
            if self._closed:
                return None
            worker = self._spawn()
            if not worker.alive:  # closed mid-spawn
                return None
            with self._lock:
                self._stats.respawns += 1
        return worker

    def release(self, worker: _Worker) -> None:
        if self._closed:
            # close() left acquired workers to their owning threads —
            # this thread owns the connection, so shut down here
            self._shutdown_worker(worker)
            return
        if worker.alive and worker.process.is_alive():
            self._idle.put(worker)
        else:
            self._note_death(worker)
            if self._closed:
                return
            replacement = self._spawn()
            if replacement.alive:
                self._idle.put(replacement)
                with self._lock:
                    self._stats.respawns += 1

    def _note_death(self, worker: _Worker) -> None:
        worker.alive = False
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        with self._lock:
            if worker in self._all:
                self._all.remove(worker)
            self._stats.worker_deaths += 1

    # ------------------------------------------------------------------ #
    # the task roundtrip
    # ------------------------------------------------------------------ #
    def _recv(self, worker: _Worker):
        """Receive one reply with the task deadline applied: a worker
        that is alive but wedged past ``task_timeout`` is terminated and
        reported dead, so a hung worker can only cost time, never hang
        the dispatching client thread."""
        if not worker.conn.poll(self.task_timeout):
            worker.alive = False
            try:  # pragma: no cover - requires a truly wedged worker
                worker.process.terminate()
            except OSError:
                pass
            raise _WorkerDied(
                f"worker task exceeded {self.task_timeout}s deadline"
            )
        return worker.conn.recv()

    def _roundtrip(self, worker: _Worker, task: tuple):
        try:
            worker.conn.send(task)
            return self._recv(worker)
        except (EOFError, OSError, BrokenPipeError) as error:
            worker.alive = False
            raise _WorkerDied(str(error)) from error

    def _ensure_snapshot(self, worker: _Worker, key: tuple, payload_fn) -> None:
        if worker.snapshot_key == key:
            return
        if self._snapshot_exporter is not None:
            name = self._snapshot_exporter(key, payload_fn)
            if name is not None:
                task = (MSG_SNAPSHOT_SHM, key, name)
                reply = self._roundtrip(worker, task)
                if reply == (REPLY_OK,):
                    worker.snapshot_key = key
                    with self._lock:
                        self._stats.snapshots_sent += 1
                        self._stats.shm_attaches += 1
                        self._stats.snapshot_bytes_shipped += len(
                            pickle.dumps(task, pickle.HIGHEST_PROTOCOL)
                        )
                    return
                if reply[0] != REPLY_SHM_FAILED:  # pragma: no cover - defensive
                    raise _WorkerDied(f"snapshot install failed: {reply!r}")
            # exporter declined or the worker could not attach (e.g. the
            # block was replaced under a racing key): same-call fallback
            with self._lock:
                self._stats.shm_fallbacks += 1
        # the pickle wire: pre-serialised so the shipped bytes are
        # measured exactly (Connection.recv unpickles raw byte messages)
        payload = pickle.dumps(
            (MSG_SNAPSHOT, key, payload_fn()), pickle.HIGHEST_PROTOCOL
        )
        try:
            worker.conn.send_bytes(payload)
            reply = self._recv(worker)
        except (EOFError, OSError, BrokenPipeError) as error:
            worker.alive = False
            raise _WorkerDied(str(error)) from error
        if reply != (REPLY_OK,):  # pragma: no cover - defensive
            raise _WorkerDied(f"snapshot install failed: {reply!r}")
        worker.snapshot_key = key
        with self._lock:
            self._stats.snapshots_sent += 1
            self._stats.snapshot_bytes_shipped += len(payload)

    def _compute(self, worker: _Worker, key: tuple, payload_fn, task: tuple):
        """Send one compute task through the shared stale-retry state
        machine: a stale worker gets the snapshot re-sent and the task
        retried once; a second stale reply reports the worker dead."""

        def on_stale() -> None:
            # the worker's installed snapshot disagrees with our
            # bookkeeping (chaos, or a respawn raced us)
            with self._lock:
                self._stats.stale_retries += 1
            worker.snapshot_key = None

        try:
            return compute_with_stale_retry(
                ensure=lambda: self._ensure_snapshot(worker, key, payload_fn),
                roundtrip=lambda: self._roundtrip(worker, task),
                on_stale=on_stale,
            )
        except StalePeer as error:  # pragma: no cover - defensive
            raise _WorkerDied(str(error)) from error

    # ------------------------------------------------------------------ #
    # whole-plan dispatch
    # ------------------------------------------------------------------ #
    def execute_plan(
        self,
        snapshot_key: tuple,
        payload_fn,
        plan,
        *,
        dedup: bool,
        rows_per_batch: int,
    ):
        """Run one bounded plan on a worker.

        Returns ``(columns, rows, metrics, wait_seconds)`` on success or
        ``None`` when the pool cannot serve it (exhausted, worker died,
        unsupported shape) — the caller falls back in-process. Semantic
        errors raised by the plan itself
        (:class:`~repro.errors.ReproError`) propagate.
        """
        start = time.perf_counter()
        worker = self.acquire()
        wait = time.perf_counter() - start
        if worker is None:
            with self._lock:
                self._stats.fallbacks += 1
            return None
        try:
            reply = self._compute(
                worker,
                snapshot_key,
                payload_fn,
                (MSG_PLAN, snapshot_key, plan, dedup, rows_per_batch),
            )
        except _WorkerDied:
            self.release(worker)
            with self._lock:
                self._stats.fallbacks += 1
            return None
        self.release(worker)
        if reply[0] == REPLY_RESULT:
            with self._lock:
                self._stats.plans_dispatched += 1
            return reply[1], reply[2], reply[3], wait
        if reply[0] == REPLY_RAISE:
            raise reply[1]
        with self._lock:  # unsupported
            self._stats.fallbacks += 1
        return None

    # ------------------------------------------------------------------ #
    # introspection / chaos hooks
    # ------------------------------------------------------------------ #
    def stats(self) -> PoolStats:
        with self._lock:
            snapshot = replace(self._stats)
            snapshot.alive = sum(
                1 for w in self._all if w.alive and w.process.is_alive()
            )
        return snapshot

    @property
    def wait_seconds(self) -> float:
        with self._lock:
            return self._stats.wait_seconds

    def debug(self, action: str, *args, worker: Optional[_Worker] = None):
        """Send a chaos-test hook to one idle worker (or ``worker``).

        Actions: ``die_on_next_task`` (exit mid-task on the next compute
        task), ``sleep`` (hold the worker busy), ``set_snapshot_key``
        (silently corrupt the installed snapshot key), ``ping``.
        """
        owned = worker is None
        if owned:
            worker = self.acquire(timeout=1.0)
            if worker is None:
                raise BEASError("no idle worker for debug hook")
        try:
            if action == "ping":
                return self._roundtrip(worker, (MSG_PING,))
            return self._roundtrip(worker, (MSG_DEBUG, action, *args))
        finally:
            if owned:
                self.release(worker)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return f"EnginePool({self.workers} workers, {state})"
