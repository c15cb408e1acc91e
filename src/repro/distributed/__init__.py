"""Peer processes: the engine pool's workers and the fleet's replicas.

One protocol, one serve loop and one coordinator side, two transports:

* :mod:`repro.distributed.protocol` — the shared vocabulary (task
  kinds, reply tags, the stale-retry state machine, the indices-only
  peer catalog) and the wire: ``u32 len | u32 crc32 | pickle`` frames
  over a pipe (:class:`~repro.distributed.protocol.PipeChannel`) or a
  socket (:class:`~repro.distributed.protocol.SocketChannel`).
* :mod:`repro.distributed.peer` — the peer process's one serve loop:
  snapshot and delta installs, plan tasks under the per-task key check,
  chaos hooks.
* :mod:`repro.distributed.peerset` — the coordinator's peer handle and
  peer set: spawn and budgeted respawn, the task deadline, the stale
  retry, the catch-up ladder (delta tail, else pickled snapshot),
  dispatch, close, and :class:`~repro.distributed.peerset.PeerStats`.
* :mod:`repro.distributed.replica` / :mod:`repro.distributed.fleet` —
  the serving fleet: a replica process on a loopback port, and the
  coordinator's constraint-group placement, template routing and delta
  tail. The engine pool (:mod:`repro.engine.pool`) is the other
  configuration of the same peer set.

Enable the fleet with ``replicas >= 2`` and the pool with
``parallelism >= 2`` (also ``BEAS_PARALLELISM``); see ``docs/api.md``.
"""

from repro.distributed.fleet import ReplicaFleet
from repro.distributed.peerset import PeerStats
from repro.distributed.protocol import (
    REPLY_STALE,
    SnapshotCatalog,
    WireError,
    compute_with_stale_retry,
    snapshot_key,
)

__all__ = [
    "PeerStats",
    "ReplicaFleet",
    "REPLY_STALE",
    "SnapshotCatalog",
    "WireError",
    "compute_with_stale_retry",
    "snapshot_key",
]
