"""The replica process: a socket-served snapshot peer.

A replica is the fleet's analogue of an engine-pool worker
(:func:`repro.engine.pool._worker_main`), promoted from a pipe to a TCP
socket and from ephemeral batch work to steady-state serving. It binds
``127.0.0.1:port`` on startup, accepts exactly one connection — its
coordinator — and then runs the snapshot protocol
(:mod:`repro.distributed.protocol`) until the connection ends:

* ``snapshot`` installs a pickled subset of the coordinator's access
  indices under a *(schema generation, version vector)* key.
* ``delta`` advances an installed snapshot in place by replaying
  maintenance records (the stored rows of each committed batch);
  any record the replica cannot apply answers ``unsupported`` and the
  coordinator re-ships the full snapshot instead — delta replay
  degrades to slower, never to wrong.
* ``plan`` executes a bounded plan over the installed indices — only
  when the task's key matches; otherwise ``stale`` with the installed
  key, and the coordinator re-ships. A replica therefore **never serves
  a read from an unsynced snapshot** (see ``docs/invariants.md``,
  *fleet discipline*).

Like pool workers, a replica holds only indices
(:class:`~repro.distributed.protocol.SnapshotCatalog`): it has no base
tables and physically cannot scan. The ``debug`` task carries the chaos
hooks the fleet suites drive, including ``corrupt_next_reply`` — the
wire-corruption fault injector (torn frame, CRC flip, implausible
length) that proves a bad frame degrades to coordinator-local serving.
"""

from __future__ import annotations

import os
import pickle
import socket
from typing import Optional

from repro.errors import ReproError
from repro.maintenance.incremental import apply_delete, apply_insert
from repro.storage.wal import MAX_FRAME_BYTES, frame_record
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
    SnapshotCatalog,
    WireError,
    describe_error,
    recv_message,
    run_plan_task,
    send_frame,
)

#: replicas are serving-tier processes on the coordinator's host; the
#: fleet never listens on an external interface
FLEET_HOST = "127.0.0.1"

#: exit codes, distinguishable in a worker post-mortem
EXIT_KILLED = 17  # chaos hook: same code the pool's die hook uses
EXIT_BIND_FAILED = 21
EXIT_NO_COORDINATOR = 22

#: how long a fresh replica waits for its coordinator to connect
ACCEPT_TIMEOUT_SECONDS = 30.0


# --------------------------------------------------------------------------- #
# delta replay (the socket twin of MmapStore._apply_record)
# --------------------------------------------------------------------------- #
def apply_delta_records(indexes: dict, records: list[dict]) -> None:
    """Replay maintenance records onto the installed index subset.

    Rows arrive as the coordinator's table stored them (the wire is
    pickle); each batch goes through the coordinator's own appliers,
    over a catalog that holds indices only, whose ``add_rows`` /
    ``remove_rows`` re-canonicalise any NaN the pickle minted afresh.
    Raises on anything it cannot apply — the serve loop reports
    ``unsupported`` and the coordinator falls back to a full snapshot
    ship.
    """
    catalog = SnapshotCatalog(indexes)
    for record in records:
        op = record["op"]
        rows = record["rows"]
        if op == "insert":
            # validate=False: the coordinator already checked the batch
            # against the bounds when it committed it
            apply_insert(catalog, record["table"], rows, validate=False)
        elif op == "delete":
            apply_delete(catalog, record["table"], rows)
        else:
            raise ReproError(f"unknown delta op {op!r}")


# --------------------------------------------------------------------------- #
# the serve loop
# --------------------------------------------------------------------------- #
def _send_reply(
    sock: socket.socket, message: tuple, corrupt: Optional[str]
) -> None:  # pragma: no cover - subprocess
    """Send one reply, optionally injecting a wire fault first.

    The fault modes mirror the WAL-tail corruption classes
    (``tests/test_storage_persistence.py``): ``truncate`` sends a torn
    prefix and shuts the stream (partial header / short payload on the
    coordinator), ``crc`` flips a payload byte under an honest header,
    ``length`` rewrites the header to an implausible frame length.
    """
    if corrupt is None:
        send_frame(sock, pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
        return
    frame = frame_record(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
    try:
        if corrupt == "truncate":
            sock.sendall(frame[: max(1, len(frame) // 2)])
            # half a frame then EOF: the coordinator must fail fast on
            # the closed stream, not wait out its task timeout
            sock.shutdown(socket.SHUT_WR)
        elif corrupt == "crc":
            torn = bytearray(frame)
            torn[-1] ^= 0xFF  # last payload byte: header stays honest
            sock.sendall(bytes(torn))
        elif corrupt == "length":
            bad_length = (MAX_FRAME_BYTES + 1).to_bytes(4, "little")
            sock.sendall(bad_length + frame[4:])
        else:
            # unknown mode: send the truthful reply; the debug call that
            # set the mode already answered ok, so failing here would
            # just wedge the test
            sock.sendall(frame)
    except OSError as error:
        raise WireError(f"socket send failed: {error}") from error


def _serve(sock: socket.socket, replica_id: int) -> None:  # pragma: no cover - subprocess
    installed_key: Optional[tuple] = None
    indexes: dict = {}
    die_next = False
    corrupt_next: Optional[str] = None
    arm_corrupt: Optional[str] = None
    while True:
        try:
            task = recv_message(sock)
        except WireError:
            # the coordinator hung up or the stream died: a replica
            # without its coordinator has nothing to serve
            return
        kind = task[0]
        if kind == MSG_EXIT:
            return
        if kind == MSG_PING:
            reply: tuple = (REPLY_PONG, os.getpid(), replica_id)
        elif kind == MSG_DEBUG:
            action = task[1]
            if action == "die":
                os._exit(EXIT_KILLED)
            if action == "die_on_next_task":
                die_next = True
                reply = (REPLY_OK,)
            elif action == "sleep":
                import time

                time.sleep(task[2])
                reply = (REPLY_OK,)
            elif action == "set_snapshot_key":
                # chaos hook: claim a key without holding its data —
                # simulates a replica whose snapshot silently went stale
                installed_key = task[2]
                reply = (REPLY_OK,)
            elif action == "corrupt_next_reply":
                # armed only after this ok is acked cleanly: the fault
                # hits the *next* reply, not the hook's own confirmation
                arm_corrupt = task[2]
                reply = (REPLY_OK,)
            else:
                reply = (REPLY_UNSUPPORTED, f"unknown debug action {action!r}")
        elif kind == MSG_SNAPSHOT:
            installed_key = task[1]
            indexes = task[2]
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
            expected_key = task[1]
            if expected_key != installed_key:
                reply = (REPLY_STALE, installed_key)
            elif kind == MSG_PLAN:
                reply = run_plan_task(indexes, task)
            else:
                reply = (REPLY_UNSUPPORTED, f"unknown task kind {kind!r}")
        try:
            _send_reply(sock, reply, corrupt_next)
        except WireError:
            return
        corrupt_next, arm_corrupt = arm_corrupt, None


def replica_main(port: int, replica_id: int) -> None:  # pragma: no cover - subprocess
    """Entry point of one replica process: bind, accept, serve, exit."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        listener.bind((FLEET_HOST, port))
        listener.listen(1)
    except OSError:
        listener.close()
        os._exit(EXIT_BIND_FAILED)
    listener.settimeout(ACCEPT_TIMEOUT_SECONDS)
    try:
        sock, _ = listener.accept()
    except OSError:
        listener.close()
        os._exit(EXIT_NO_COORDINATOR)
    listener.close()
    sock.settimeout(None)
    # the protocol is small request/reply frames: Nagle plus delayed-ACK
    # would stall each round-trip; the coordinator disables it too
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        _serve(sock, replica_id)
    finally:
        try:
            sock.close()
        except OSError:
            pass
