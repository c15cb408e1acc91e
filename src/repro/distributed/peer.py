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
  version vector)* key.
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
from typing import Optional

from repro.distributed.protocol import (
    MSG_DEBUG,
    MSG_DELTA,
    MSG_EXIT,
    MSG_PING,
    MSG_PLAN,
    MSG_SNAPSHOT,
    REPLY_OK,
    REPLY_PONG,
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
    die_next = False
    corrupt_next: Optional[str] = None
    arm_corrupt: Optional[str] = None
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
