"""The peer process: one serve loop for a pool worker and a fleet replica.

A peer holds only access indices (a
:class:`~repro.distributed.protocol.SnapshotCatalog`): it has no base
tables and physically cannot scan. :func:`serve` answers its
coordinator's tasks over a :class:`~repro.distributed.protocol.Channel`
until the channel ends; the engine pool's worker
(:func:`repro.engine.pool._worker_main`) hands it a pipe, a fleet
replica (:func:`repro.distributed.replica.replica_main`) a socket, and
nothing below the channel knows which:

* ``snapshot`` installs a pickled index map under a *(schema generation,
  version vector)* key; ``snapshot_shm`` attaches one the coordinator
  exported to shared memory (a failed attach answers ``shm-failed`` and
  the coordinator ships the pickle instead).
* ``delta`` advances the installed snapshot in place by replaying
  maintenance records (the stored rows of each committed batch); a
  record the peer cannot apply answers ``unsupported`` and the
  coordinator re-ships the full snapshot — slower, never wrong.
* ``plan`` runs a bounded plan over the installed indices — only when
  the task's key matches; otherwise ``stale`` with the installed key,
  and the coordinator re-ships. A peer therefore **never serves a read
  from an unsynced snapshot** (``docs/invariants.md``, *Peer
  discipline*).
* ``debug`` carries the chaos hooks the pool and fleet suites drive,
  ``corrupt_next_reply`` among them: the wire-fault injector (torn
  frame, CRC flip, implausible length) that proves a bad frame degrades
  to coordinator-local serving on either transport.
"""

from __future__ import annotations

import os
import time
from contextlib import suppress
from typing import Optional

from repro.distributed.protocol import (
    MSG_DEBUG,
    MSG_DELTA,
    MSG_EXIT,
    MSG_PING,
    MSG_PLAN,
    MSG_SNAPSHOT,
    MSG_SNAPSHOT_SHM,
    REPLY_OK,
    REPLY_PONG,
    REPLY_SHM_FAILED,
    REPLY_STALE,
    REPLY_UNSUPPORTED,
    Channel,
    SnapshotCatalog,
    WireError,
    describe_error,
    encode_message,
    run_plan_task,
)
from repro.errors import ReproError
from repro.maintenance.incremental import apply_delete, apply_insert
from repro.storage.wal import MAX_FRAME_BYTES

#: the exit code of the ``die`` hooks, distinguishable in a post-mortem
EXIT_KILLED = 17


def apply_delta_records(indexes: dict, records: list[dict]) -> None:
    """Replay maintenance records onto the installed index subset.

    Rows arrive as the coordinator's table stored them (the wire is
    pickle); each batch goes through the coordinator's own appliers,
    over a catalog that holds indices only, whose ``add_rows`` /
    ``remove_rows`` re-canonicalise any NaN the pickle minted afresh.
    Raises on anything it cannot apply — the serve loop reports
    ``unsupported`` and the coordinator ships a full snapshot.
    """
    catalog = SnapshotCatalog(indexes)
    for record in records:
        op = record["op"]
        if op == "insert":
            # validate=False: the coordinator already checked the batch
            # against the bounds when it committed it
            apply_insert(catalog, record["table"], record["rows"], validate=False)
        elif op == "delete":
            apply_delete(catalog, record["table"], record["rows"])
        else:
            raise ReproError(f"unknown delta op {op!r}")


def serve(channel: Channel, peer_id: int) -> None:  # pragma: no cover - subprocess
    """Answer the coordinator's tasks until the channel ends or an
    ``exit`` task arrives. The one place a peer dispatches on task kind."""
    installed_key: Optional[tuple] = None
    indexes: dict = {}
    shm_handle = None  # the attached SharedMemory backing mapped indices
    die_next = False
    corrupt_next: Optional[str] = None
    arm_corrupt: Optional[str] = None
    # decided once, before any shm attach: whether this peer runs its own
    # resource tracker (spawn) or shares the coordinator's (fork)
    private_tracker = not _tracker_is_inherited()
    while True:
        try:
            task = channel.recv()
        except WireError:
            # the coordinator hung up or the stream died: a peer without
            # its coordinator has nothing to serve
            return
        kind = task[0]
        if kind == MSG_EXIT:
            return
        if kind == MSG_PING:
            reply: tuple = (REPLY_PONG, os.getpid(), peer_id)
        elif kind == MSG_DEBUG:
            action = task[1]
            reply = (REPLY_OK,)
            if action == "die":
                os._exit(EXIT_KILLED)
            elif action == "die_on_next_task":
                die_next = True
            elif action == "sleep":
                time.sleep(task[2])
            elif action == "set_snapshot_key":
                # claim a key without holding its data: a peer whose
                # snapshot silently went stale
                installed_key = task[2]
            elif action == "corrupt_next_reply":
                # armed only after this ok is sent cleanly: the fault hits
                # the *next* reply, not the hook's own confirmation
                arm_corrupt = task[2]
            else:
                reply = (REPLY_UNSUPPORTED, f"unknown debug action {action!r}")
        elif kind == MSG_SNAPSHOT:
            installed_key, indexes = task[1], task[2]
            _detach(shm_handle)
            shm_handle = None
            reply = (REPLY_OK,)
        elif kind == MSG_SNAPSHOT_SHM:
            try:
                attached, handle = _attach_shm_snapshot(task[2], unregister=private_tracker)
            except Exception as error:  # noqa: BLE001 - any attach failure reports back and the coordinator ships the pickle instead
                reply = (REPLY_SHM_FAILED, describe_error(error))
            else:
                # the old mapping closes only once its indices are dropped
                installed_key, indexes = task[1], attached
                _detach(shm_handle)
                shm_handle = handle
                reply = (REPLY_OK,)
        elif kind == MSG_DELTA:
            try:
                apply_delta_records(indexes, task[2])
                installed_key = task[1]
                reply = (REPLY_OK,)
            except Exception as error:  # noqa: BLE001 - an unapplicable delta reports back and the coordinator re-ships the full snapshot
                reply = (REPLY_UNSUPPORTED, describe_error(error))
        else:
            if die_next:
                os._exit(EXIT_KILLED)
            if task[1] != installed_key:
                reply = (REPLY_STALE, installed_key)
            elif kind == MSG_PLAN:
                reply = run_plan_task(indexes, task)
            else:
                reply = (REPLY_UNSUPPORTED, f"unknown task kind {kind!r}")
        try:
            _send_reply(channel, reply, corrupt_next)
        except WireError:
            return
        corrupt_next, arm_corrupt = arm_corrupt, None


def _send_reply(
    channel: Channel, reply: tuple, corrupt: Optional[str]
) -> None:  # pragma: no cover - subprocess
    """Send one reply, first injecting a wire fault when one is armed.

    The fault modes mirror the WAL-tail corruption classes
    (``tests/test_storage_persistence.py``): ``truncate`` sends a torn
    prefix and ends the stream, ``crc`` flips a payload byte under an
    honest header, ``length`` rewrites the header to an implausible
    frame length. An unknown mode sends the truthful reply: the hook
    that set it already answered ok.
    """
    if corrupt is None:
        channel.send(reply)
        return
    frame = encode_message(reply)
    if corrupt == "truncate":
        channel.send_frame(frame[: max(1, len(frame) // 2)])
        # half a frame then EOF: the coordinator must fail fast on the
        # ended stream, not wait out its task deadline
        channel.shutdown()
    elif corrupt == "crc":
        channel.send_frame(frame[:-1] + bytes([frame[-1] ^ 0xFF]))
    elif corrupt == "length":
        channel.send_frame((MAX_FRAME_BYTES + 1).to_bytes(4, "little") + frame[4:])
    else:
        channel.send_frame(frame)


def _detach(handle) -> None:  # pragma: no cover - subprocess
    """Close a shared-memory attachment (unlinking is the exporter's job)."""
    if handle is not None:
        with suppress(BufferError, OSError):
            handle.close()


def _tracker_is_inherited() -> bool:  # pragma: no cover - subprocess
    """True when this peer shares the coordinator's resource tracker.

    Under ``fork``/``forkserver`` the tracker process (and its pipe fd)
    is inherited, so register/unregister messages land in the SAME
    bookkeeping set the coordinator uses; under ``spawn`` the module
    state is fresh and the first registration starts a private tracker.
    """
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_fd", None) is not None


def _attach_shm_snapshot(name: str, *, unregister: bool):  # pragma: no cover - subprocess
    """Attach one exported snapshot block and open its mapped indices.

    The handle must outlive the indices (their buckets decode lazily
    from ``handle.buf``), so it is returned to the serve loop, which
    closes the *previous* attachment only after replacing the index
    dict. Never unlinks: the block's lifetime belongs to the
    coordinator's exporter.
    """
    from multiprocessing import resource_tracker, shared_memory

    from repro.storage.mmapstore import decode_snapshot

    handle = shared_memory.SharedMemory(name=name)
    if unregister:
        # attaching registers the block with this peer's PRIVATE
        # resource tracker as if the peer owned it (bpo-38119);
        # unregister, or the tracker unlinks a block the coordinator
        # still serves and warns about it at shutdown. With an INHERITED
        # (shared) tracker the registration is the coordinator's own and
        # must stay — removing it here makes the eventual unlink a
        # double-remove the tracker reports as a KeyError.
        try:
            resource_tracker.unregister(handle._name, "shared_memory")
        except Exception:  # noqa: BLE001 - tracker bookkeeping only; never fail the attach over it
            pass
    try:
        indexes = decode_snapshot(handle.buf)
    except Exception:  # noqa: BLE001 - close the mapping on ANY decode failure, then re-raise for the fallback reply
        _detach(handle)
        raise
    return indexes, handle
