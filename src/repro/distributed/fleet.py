"""The serving fleet: a coordinator's client for socket-served replicas.

The :class:`ReplicaFleet` is one configuration of
:class:`~repro.distributed.peerset.PeerSet`, the coordinator side the
engine pool shares: it spawns N :mod:`repro.distributed.replica`
processes on ``127.0.0.1:port_base + i``, places access constraints
across them, and dispatches a covered bounded plan to the replica that
co-locates every constraint the plan uses.

**Placement** is by access-constraint group: the sorted constraint
names round-robin across replicas, so two constraints over the same hot
table land on *different* replicas — one table's slices split across
serving processes instead of serialising on a single shard owner.
Placement is recomputed whenever the catalog's schema generation moves.

**Writes stay on the coordinator.** Maintenance commits locally (WAL,
version bump), then :meth:`ReplicaFleet.note_maintenance` appends the
batch — its rows as the table stored them — to a bounded per-table
delta tail, the first rung of the peer set's catch-up ladder: a replica
answering ``stale`` is caught up with the tail when it covers the
replica's installed version vector contiguously, with the full pickled
index subset otherwise (schema change, evicted tail, or a replica that
cannot apply the delta).
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Optional

from repro.errors import BEASError
from repro.distributed.peerset import RESPAWN_BUDGET, Peer, PeerSet  # noqa: F401 - re-exported: a replica's respawn budget
from repro.distributed.protocol import (
    SocketChannel,
    connect_with_retry,
    snapshot_key,
)
from repro.distributed.replica import FLEET_HOST, replica_main

#: per-table delta-tail capacity; a replica further behind than this
#: many maintenance batches is caught up with a full snapshot instead
DELTA_TAIL_RECORDS = 64


class ReplicaFleet(PeerSet):
    """N socket-connected read replicas behind one coordinator."""

    kind = "fleet"

    #: how long a spawned replica has to accept the coordinator's connection
    connect_timeout = 10.0

    def __init__(self, catalog, *, replicas: int, port_base: int):
        if replicas < 2:
            raise BEASError(
                f"a fleet needs >= 2 replicas, got {replicas} "
                f"(1 means in-process serving; no fleet is spawned)"
            )
        self._catalog = catalog
        self.replicas = replicas
        self.port_base = port_base
        # placement: constraint name -> replica id, rebuilt per schema
        # generation and swapped in whole, so readers take no lock
        self._placement: dict[str, int] = {}
        self._placement_generation: Optional[int] = None
        self._placement_lock = threading.Lock()
        # the delta tail: per-table maintenance records since the oldest
        # version any replica may still hold (bounded; see _delta_for)
        self._tail: dict[str, deque] = {}
        self._tail_lock = threading.Lock()
        super().__init__(replicas)

    def _launch(self, peer: Peer) -> Optional[SocketChannel]:
        port = self.port_base + peer.id
        self._spawn(peer, replica_main, port)
        sock = connect_with_retry(
            (FLEET_HOST, port), deadline_seconds=self.connect_timeout
        )
        return None if sock is None else SocketChannel(sock, self.task_timeout)

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
            constraints = sorted(self._catalog.schema, key=lambda c: c.name)
            self._placement = {
                constraint.name: position % self.replicas
                for position, constraint in enumerate(constraints)
            }
            self._placement_generation = generation

    def placement(self) -> dict[str, int]:
        """Constraint name -> replica id (current schema generation)."""
        self._refresh_placement()
        return dict(self._placement)

    def _route(self, plan) -> Optional[int]:
        """The one replica holding every constraint the plan uses, or
        ``None`` when no replica co-locates them all."""
        placement = self._placement
        owners = {placement.get(c.name) for c in plan.constraints_used}
        return owners.pop() if len(owners) == 1 else None

    def _capture_key(self, replica_id: int) -> tuple:
        database, placement = self._catalog.database, self._placement
        versions = {
            c.relation: database.table(c.relation).version
            for c in self._catalog.schema
            if placement.get(c.name) == replica_id and c.relation in database
        }
        return snapshot_key(self._catalog.schema_generation, versions)

    def _capture_subset(self, replica_id: int) -> dict:
        placement = self._placement
        return {
            name: index
            for name, index in self._catalog.index_map().items()
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
            tail = self._tail.setdefault(
                table.schema.name, deque(maxlen=DELTA_TAIL_RECORDS)
            )
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
        old_map = dict(old_versions)
        new_map = dict(new_versions)
        if old_generation != new_generation or set(old_map) != set(new_map):
            # a schema change may have added/dropped constraints or
            # adjusted bounds: re-ship the subset, never patch over it
            return None
        records: list[dict] = []
        with self._tail_lock:
            for name in sorted(new_map):
                cursor, new_version = old_map[name], new_map[name]
                for record in self._tail.get(name, ()):
                    if cursor == new_version:
                        break
                    if record["version"] <= cursor:
                        continue
                    if record["prev"] != cursor:
                        return None  # gap (evicted tail): not contiguous
                    records.append(record)
                    cursor = record["version"]
                if cursor != new_version:
                    return None
        return records

    # ------------------------------------------------------------------ #
    # dispatch
    # ------------------------------------------------------------------ #
    def execute_plan(self, plan, *, rows_per_batch: int) -> Optional[tuple]:
        """Serve one bounded plan from its co-located replica.

        Returns ``(columns, rows, metrics, wire_seconds, replica_id)``
        on success or ``None`` when the fleet cannot serve it (no
        co-locating replica, busy connection, replica death, corrupt
        wire) — the caller executes in-coordinator. Semantic errors
        raised by the plan itself propagate, exactly as on a pool
        worker.
        """
        self._refresh_placement()
        replica_id = self._route(plan)
        if replica_id is None:
            self._count(routing_misses=1, fallbacks=1)
            return None
        key = self._capture_key(replica_id)
        outcome = self._run(
            replica_id,
            key,
            lambda: self._capture_subset(replica_id),
            plan,
            rows_per_batch,
        )
        return None if outcome is None else (*outcome[:3], *outcome[4:])

    def debug(self, action: str, *args: Any, replica_id: int = 0) -> tuple:
        """:meth:`PeerSet.debug` on replica ``replica_id``."""
        return super().debug(action, *args, peer_id=replica_id)
