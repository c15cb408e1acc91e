"""The serving fleet: a coordinator's client for socket-served replicas.

The :class:`ReplicaFleet` is the distributed tier's master half: it
spawns N :mod:`repro.distributed.replica` processes on
``127.0.0.1:port_base + i``, places access constraints across them, and
dispatches covered bounded plans to whichever replica co-locates every
constraint the plan uses — speaking the snapshot protocol the engine
pool pioneered (:mod:`repro.distributed.protocol`), now over TCP.

**Placement** is by access-constraint group: the sorted constraint
names round-robin across replicas, so two constraints over the same hot
table land on *different* replicas — one table's slices finally split
across serving processes instead of serialising on a single shard
owner. Placement is recomputed whenever the catalog's schema generation
moves.

**Writes stay on the coordinator.** Maintenance commits locally (WAL,
version bump), then :meth:`note_maintenance` appends
the batch — its rows as the table stored them — to a bounded per-table
delta tail. A replica that answers ``stale`` is
caught up with the cheapest re-ship that is provably sufficient: the
delta tail when it covers the replica's installed version vector
contiguously, the full pickled index subset otherwise (schema change,
evicted tail, or a replica that cannot apply the delta).

**Failure is never an answer.** A dead replica, a torn frame, a CRC
mismatch, a wedged socket past the task timeout, or a second ``stale``
after a re-ship all make the dispatch return ``None`` — the executor
runs the plan in-coordinator (the engine pool's graceful-degradation
contract) and the failure shows up in :class:`FleetStats`, never in a
row set.
"""

from __future__ import annotations

import multiprocessing
import pickle
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro import config
from repro.errors import BEASError
from repro.distributed.protocol import (
    MSG_DEBUG,
    MSG_DELTA,
    MSG_EXIT,
    MSG_PING,
    MSG_PLAN,
    MSG_SNAPSHOT,
    REPLY_OK,
    REPLY_RAISE,
    REPLY_RESULT,
    StalePeer,
    WireError,
    compute_with_stale_retry,
    connect_with_retry,
    recv_message,
    send_frame,
    send_message,
    snapshot_key,
)
from repro.distributed.replica import FLEET_HOST, replica_main

#: per-table delta-tail capacity; a replica further behind than this
#: many maintenance batches is caught up with a full snapshot instead
DELTA_TAIL_RECORDS = 64

#: a permanently flapping replica (port conflict, crash loop) stops
#: being respawned after this many attempts and serves nothing
RESPAWN_BUDGET = 3

_ROUTE_MISS = object()


@dataclass
class FleetStats:
    """Cumulative counters for one :class:`ReplicaFleet`."""

    replicas: int = 0
    alive: int = 0
    plans_dispatched: int = 0
    serves: dict[int, int] = field(default_factory=dict)  # replica -> plans
    snapshots_sent: int = 0
    delta_reships: int = 0
    delta_records_shipped: int = 0
    bytes_shipped: int = 0  # wire bytes of snapshot + delta installs
    stale_reships: int = 0  # stale replies that triggered a re-ship
    failovers: int = 0  # dispatches that failed over on replica death
    respawns: int = 0
    routing_misses: int = 0  # plans no single replica co-locates
    fallbacks: int = 0  # dispatches served in-coordinator for any reason
    wait_seconds: float = 0.0  # time spent acquiring replica connections
    wire_seconds: float = 0.0  # total socket roundtrip time of serves

    def describe(self) -> str:
        per_replica = " ".join(
            f"r{replica_id}:{count}"
            for replica_id, count in sorted(self.serves.items())
        )
        return (
            f"serving fleet: {self.alive}/{self.replicas} replicas alive, "
            f"{self.plans_dispatched} plans served"
            f"{f' ({per_replica})' if per_replica else ''}, "
            f"{self.snapshots_sent} snapshots + {self.delta_reships} delta "
            f"reships shipped ({self.bytes_shipped} B, "
            f"{self.delta_records_shipped} records), {self.stale_reships} "
            f"stale reships, {self.failovers} failovers "
            f"({self.respawns} respawns), {self.routing_misses} routing "
            f"misses, {self.fallbacks} fallbacks, "
            f"wire {self.wire_seconds * 1000:.2f} ms"
        )


class _Replica:
    """One replica process plus the coordinator-side bookkeeping."""

    __slots__ = (
        "id",
        "port",
        "process",
        "sock",
        "snapshot_key",
        "alive",
        "lock",
        "respawn_budget",
    )

    def __init__(self, replica_id: int, port: int):
        self.id = replica_id
        self.port = port
        self.process = None
        self.sock: Optional[socket.socket] = None
        self.snapshot_key: Optional[tuple] = None
        self.alive = False
        # one dispatch at a time per socket: the connection is a serial
        # request/reply stream, exactly like a pool worker's pipe
        self.lock = threading.Lock()
        self.respawn_budget = RESPAWN_BUDGET


class ReplicaFleet:
    """N socket-connected read replicas behind one coordinator.

    Thread-safe: serving threads dispatch concurrently, one in-flight
    task per replica connection; a busy replica's lock is waited on only
    up to ``acquire_timeout`` before the dispatch falls back
    in-coordinator. Replicas are daemonic processes, so an abandoned
    fleet cannot outlive the interpreter; :meth:`close` shuts them down
    deterministically.
    """

    def __init__(
        self,
        catalog,
        *,
        replicas: int,
        port_base: int,
        start_method: Optional[str] = None,
        acquire_timeout: float = 0.05,
        task_timeout: float = 120.0,
        connect_timeout: float = 10.0,
    ):
        if replicas < 2:
            raise BEASError(
                f"a fleet needs >= 2 replicas, got {replicas} "
                f"(1 means in-process serving; no fleet is spawned)"
            )
        self._catalog = catalog
        self.replicas = replicas
        self.port_base = port_base
        self.acquire_timeout = acquire_timeout
        self.task_timeout = task_timeout
        self.connect_timeout = connect_timeout
        method = start_method or config.env_pool_start_method()
        if method is None:
            available = multiprocessing.get_all_start_methods()
            method = "fork" if "fork" in available else "spawn"
        self._context = multiprocessing.get_context(method)
        self._closed = False
        self._stats = FleetStats(replicas=replicas)
        self._stats_lock = threading.Lock()
        # placement: constraint name -> replica id, rebuilt per schema
        # generation; the route cache maps a plan's constraint-name set
        # to the one replica co-locating it (or None)
        self._placement: dict[str, int] = {}
        self._relation_of: dict[str, str] = {}
        self._placement_generation: Optional[int] = None
        self._placement_lock = threading.Lock()
        self._route_cache: dict[tuple, Optional[int]] = {}
        # the delta tail: per-table maintenance records since the oldest
        # version any replica may still hold (bounded; see _delta_for)
        self._tail: dict[str, deque] = {}
        self._tail_lock = threading.Lock()
        self._replicas = [
            _Replica(i, port_base + i) for i in range(replicas)
        ]
        for replica in self._replicas:
            self._launch(replica)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def _launch(self, replica: _Replica) -> bool:
        """Start one replica process and connect to it; on failure the
        replica is left dead (its routed plans serve in-coordinator)."""
        process = self._context.Process(
            target=replica_main,
            args=(replica.port, replica.id),
            name=f"beas-fleet-replica-{replica.id}",
            daemon=True,
        )
        process.start()
        replica.process = process
        sock = connect_with_retry(
            (FLEET_HOST, replica.port),
            deadline_seconds=self.connect_timeout,
        )
        if sock is None:
            try:
                process.terminate()
            except (OSError, ValueError):
                pass
            replica.alive = False
            return False
        # request/reply over one stream: Nagle's algorithm would add a
        # delayed-ACK stall to every small task frame
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(self.task_timeout)
        replica.sock = sock
        replica.snapshot_key = None
        replica.alive = True
        return True

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Shut every replica down; in-flight dispatches finish first
        (each connection is owned by its lock holder until released)."""
        self._closed = True
        for replica in self._replicas:
            acquired = replica.lock.acquire(timeout=2.0)
            try:
                if replica.alive and replica.sock is not None:
                    try:
                        send_message(replica.sock, (MSG_EXIT,))
                    except WireError:
                        pass
                self._drop_connection(replica)
                process = replica.process
                if process is not None:
                    process.join(timeout=2.0)
                    if process.is_alive():  # pragma: no cover - stuck replica
                        process.terminate()
                        process.join(timeout=1.0)
                replica.alive = False
            finally:
                if acquired:
                    replica.lock.release()

    def __enter__(self) -> "ReplicaFleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC-time best effort
        try:
            if not self._closed:
                self.close()
        except Exception:  # beaslint: ok(except-discipline) - GC-time best effort; __del__ must never raise
            pass

    def _drop_connection(self, replica: _Replica) -> None:
        sock, replica.sock = replica.sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        replica.snapshot_key = None

    def _note_death(self, replica: _Replica) -> None:
        """Caller holds ``replica.lock``."""
        replica.alive = False
        self._drop_connection(replica)

    def _respawn(self, replica: _Replica) -> bool:
        """Caller holds ``replica.lock``. One respawn attempt, against a
        bounded budget so a crash-looping replica cannot stall serving."""
        if self._closed or replica.respawn_budget <= 0:
            return False
        replica.respawn_budget -= 1
        self._drop_connection(replica)
        process = replica.process
        if process is not None and process.is_alive():
            try:
                process.terminate()
                process.join(timeout=1.0)
            except (OSError, ValueError):  # pragma: no cover
                pass
        if not self._launch(replica):
            return False
        with self._stats_lock:
            self._stats.respawns += 1
        return True

    # ------------------------------------------------------------------ #
    # placement + routing
    # ------------------------------------------------------------------ #
    def _refresh_placement(self) -> None:
        generation = self._catalog.schema_generation
        if generation == self._placement_generation:
            return
        with self._placement_lock:
            if generation == self._placement_generation:
                return
            constraints = sorted(
                self._catalog.schema, key=lambda c: c.name
            )
            # round-robin over the sorted names: constraints of one hot
            # table spread across replicas instead of stacking on one
            self._relation_of = {c.name: c.relation for c in constraints}
            self._placement = {
                constraint.name: position % self.replicas
                for position, constraint in enumerate(constraints)
            }
            self._route_cache = {}
            self._placement_generation = generation

    def placement(self) -> dict[str, int]:
        """Constraint name -> replica id (current schema generation)."""
        self._refresh_placement()
        with self._placement_lock:
            return dict(self._placement)

    def _route(self, plan) -> Optional[int]:
        """The one replica holding every constraint the plan uses, or
        ``None`` when no replica co-locates them all."""
        names = tuple(sorted(c.name for c in plan.constraints_used))
        if not names:
            return None
        cached = self._route_cache.get(names, _ROUTE_MISS)
        if cached is not _ROUTE_MISS:
            return cached
        with self._placement_lock:
            placement = self._placement
            target: Optional[int] = placement.get(names[0])
            if target is not None:
                for name in names[1:]:
                    if placement.get(name) != target:
                        target = None
                        break
            self._route_cache[names] = target
        return target

    def _replica_versions(self, replica_id: int) -> dict[str, int]:
        database = self._catalog.database
        with self._placement_lock:
            tables = {
                self._relation_of[name]
                for name, owner in self._placement.items()
                if owner == replica_id
            }
        return {
            name: database.table(name).version
            for name in sorted(tables)
            if name in database
        }

    def _capture_key(self, replica_id: int) -> tuple:
        return snapshot_key(
            self._catalog.schema_generation,
            self._replica_versions(replica_id),
        )

    def _capture_subset(self, replica_id: int) -> dict:
        index_map = self._catalog.index_map()
        with self._placement_lock:
            placement = dict(self._placement)
        return {
            name: index
            for name, index in index_map.items()
            if placement.get(name) == replica_id
        }

    # ------------------------------------------------------------------ #
    # the delta tail (fed by the coordinator's maintenance path)
    # ------------------------------------------------------------------ #
    def note_maintenance(
        self,
        op: str,
        table,
        rows: list,
        prev_version: Optional[int],
    ) -> None:
        """Record one committed ``insert`` / ``delete`` batch for delta
        re-ship; its rows are kept as the table stored them, and the
        pickle wire carries them so."""
        record = {
            "op": op,
            "table": table.schema.name,
            "rows": rows,
            "prev": prev_version,
            "version": table.version,
        }
        with self._tail_lock:
            tail = self._tail.get(table.schema.name)
            if tail is None:
                tail = deque(maxlen=DELTA_TAIL_RECORDS)
                self._tail[table.schema.name] = tail
            tail.append(record)

    def _delta_for(
        self, old_key: Optional[tuple], new_key: tuple
    ) -> Optional[list]:
        """The record chain advancing ``old_key`` to ``new_key``, or
        ``None`` when only a full snapshot is provably sufficient."""
        if old_key is None:
            return None
        old_generation, old_versions = old_key
        new_generation, new_versions = new_key
        if old_generation != new_generation:
            # a schema change may have added/dropped constraints or
            # adjusted bounds: re-ship the subset, never patch over it
            return None
        old_map = dict(old_versions)
        new_map = dict(new_versions)
        if set(old_map) != set(new_map):
            return None
        records: list[dict] = []
        with self._tail_lock:
            for name in sorted(new_map):
                old_version = old_map[name]
                new_version = new_map[name]
                if old_version == new_version:
                    continue
                cursor = old_version
                for record in self._tail.get(name, ()):
                    if record["version"] <= cursor:
                        continue
                    if record["prev"] != cursor:
                        return None  # gap (evicted tail): not contiguous
                    records.append(record)
                    cursor = record["version"]
                    if cursor == new_version:
                        break
                if cursor != new_version:
                    return None
        return records

    # ------------------------------------------------------------------ #
    # the wire
    # ------------------------------------------------------------------ #
    def _roundtrip(self, replica: _Replica, task: tuple) -> tuple:
        send_message(replica.sock, task)
        return recv_message(replica.sock)

    def _ensure_snapshot(self, replica: _Replica, key: tuple) -> None:
        """Install ``key`` on the replica: the delta tail when it covers
        the replica's installed vector, the full subset otherwise."""
        if replica.snapshot_key == key:
            return
        delta = self._delta_for(replica.snapshot_key, key)
        if delta is not None:
            sent = send_message(replica.sock, (MSG_DELTA, key, delta))
            reply = recv_message(replica.sock)
            if reply[0] == REPLY_OK:
                replica.snapshot_key = key
                with self._stats_lock:
                    self._stats.delta_reships += 1
                    self._stats.delta_records_shipped += len(delta)
                    self._stats.bytes_shipped += sent
                return
            # the replica could not apply the delta: its installed state
            # is now unknown, so fall through to the full snapshot
            replica.snapshot_key = None
        subset = self._capture_subset(replica.id)
        try:
            payload = pickle.dumps(
                (MSG_SNAPSHOT, key, subset), pickle.HIGHEST_PROTOCOL
            )
        except Exception as error:  # noqa: BLE001 - a snapshot that cannot serialize (mid-mutation index, exotic value) must fail over, not crash the serving thread
            raise WireError(f"snapshot failed to serialize: {error}") from error
        sent = send_frame(replica.sock, payload)
        reply = recv_message(replica.sock)
        if reply[0] != REPLY_OK:  # pragma: no cover - defensive
            raise WireError(f"snapshot install failed: {reply[0]!r}")
        replica.snapshot_key = key
        with self._stats_lock:
            self._stats.snapshots_sent += 1
            self._stats.bytes_shipped += sent

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def execute_plan(
        self, plan, *, dedup: bool, rows_per_batch: int
    ) -> Optional[tuple]:
        """Serve one bounded plan from its co-located replica.

        Returns ``(columns, rows, metrics, wire_seconds, replica_id)``
        on success or ``None`` when the fleet cannot serve it (no
        co-locating replica, busy connection, replica death, corrupt
        wire) — the caller executes in-coordinator. Semantic errors
        raised by the plan itself propagate, exactly as on a pool
        worker.
        """
        if self._closed:
            return None
        self._refresh_placement()
        replica_id = self._route(plan)
        if replica_id is None:
            with self._stats_lock:
                self._stats.routing_misses += 1
                self._stats.fallbacks += 1
            return None
        replica = self._replicas[replica_id]
        start = time.perf_counter()
        if not replica.lock.acquire(timeout=self.acquire_timeout):
            with self._stats_lock:
                self._stats.wait_seconds += time.perf_counter() - start
                self._stats.fallbacks += 1
            return None
        try:
            with self._stats_lock:
                self._stats.wait_seconds += time.perf_counter() - start
            if not replica.alive and not self._respawn(replica):
                with self._stats_lock:
                    self._stats.fallbacks += 1
                return None
            key = self._capture_key(replica_id)
            task = (MSG_PLAN, key, plan, dedup, rows_per_batch)

            def on_stale() -> None:
                with self._stats_lock:
                    self._stats.stale_reships += 1
                replica.snapshot_key = None

            try:
                reply = compute_with_stale_retry(
                    ensure=lambda: self._ensure_snapshot(replica, key),
                    roundtrip=lambda: self._roundtrip(replica, task),
                    on_stale=on_stale,
                )
            except (WireError, StalePeer):
                # the connection or the replica is gone: tear it down
                # and serve this plan in-coordinator; the next dispatch
                # routed here attempts a respawn
                self._note_death(replica)
                with self._stats_lock:
                    self._stats.failovers += 1
                    self._stats.fallbacks += 1
                return None
            wire = time.perf_counter() - start
            if reply[0] == REPLY_RESULT:
                with self._stats_lock:
                    self._stats.plans_dispatched += 1
                    self._stats.serves[replica_id] = (
                        self._stats.serves.get(replica_id, 0) + 1
                    )
                    self._stats.wire_seconds += wire
                return reply[1], reply[2], reply[3], wire, replica_id
            if reply[0] == REPLY_RAISE:
                # semantic failure (bound exceeded, type error): the
                # in-process outcome would be identical, so it propagates
                raise reply[1]
            with self._stats_lock:  # unsupported
                self._stats.fallbacks += 1
            return None
        finally:
            replica.lock.release()

    # ------------------------------------------------------------------ #
    # introspection / chaos hooks
    # ------------------------------------------------------------------ #
    def stats(self) -> FleetStats:
        with self._stats_lock:
            snapshot = replace(self._stats, serves=dict(self._stats.serves))
        snapshot.alive = sum(
            1
            for replica in self._replicas
            if replica.alive
            and replica.process is not None
            and replica.process.is_alive()
        )
        return snapshot

    def debug(self, action: str, *args: Any, replica_id: int = 0) -> tuple:
        """Send a chaos hook to one replica (``die``,
        ``die_on_next_task``, ``sleep``, ``set_snapshot_key``,
        ``corrupt_next_reply``, ``ping``)."""
        replica = self._replicas[replica_id]
        with replica.lock:
            if not replica.alive and not self._respawn(replica):
                raise BEASError(f"replica {replica_id} is not alive")
            try:
                if action == "ping":
                    return self._roundtrip(replica, (MSG_PING,))
                return self._roundtrip(
                    replica, (MSG_DEBUG, action, *args)
                )
            except WireError as error:
                self._note_death(replica)
                if action == "die":
                    # the hook's purpose: the process is gone before it
                    # can reply, and that is the success condition
                    return (REPLY_OK,)
                raise BEASError(
                    f"debug {action!r} failed: {error}"
                ) from error

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return f"ReplicaFleet({self.replicas} replicas, {state})"
