"""The snapshot protocol and the two transports that carry it.

A coordinator ships a catalog snapshot keyed by *(schema generation,
per-table version vector)*; a peer answers compute tasks only when the
task's key matches its installed snapshot, replying ``stale`` with what
it has installed otherwise; the coordinator re-ships and retries exactly
once. The engine pool speaks it to worker processes over
``multiprocessing`` pipes, the serving fleet to replica processes over
TCP sockets. The vocabulary — task kinds, reply tags, the stale-retry
state machine, the indices-only peer catalog — and the wire live here,
so the two transports cannot drift apart.

Both transports carry the WAL's ``u32 len | u32 crc32 | payload`` frame
(:func:`repro.storage.wal.frame_record`) around a pickled task or reply
tuple: a :class:`PipeChannel` sends one frame per pipe message, a
:class:`SocketChannel` streams them. Indices, delta rows and answers
travel as the Python values they are, so the wire invents no value
coding of its own (an index that receives a NaN re-canonicalises it,
:mod:`repro.storage.codec`). Any framing violation (EOF mid-frame, an
implausible length, a CRC mismatch, an unpicklable payload) raises
:class:`WireError`; a corrupt stream is never resynchronised, the peer
is torn down and the dispatch falls back to coordinator-local
execution.
"""

from __future__ import annotations

import pickle
import socket
import time
from contextlib import suppress
from typing import Any, Callable, Optional

from repro.errors import ReproError, StorageError
from repro.storage.wal import (
    FRAME_HEADER_BYTES,
    frame_payload_matches,
    frame_record,
    split_frame_header,
)

# --------------------------------------------------------------------------- #
# the shared vocabulary
# --------------------------------------------------------------------------- #
MSG_EXIT = "exit"
MSG_PING = "ping"
MSG_DEBUG = "debug"
MSG_SNAPSHOT = "snapshot"
MSG_DELTA = "delta"
MSG_PLAN = "plan"

REPLY_OK = "ok"
REPLY_PONG = "pong"
REPLY_STALE = "stale"
REPLY_RESULT = "result"
REPLY_RAISE = "raise"
REPLY_UNSUPPORTED = "unsupported"

#: one receive buffer's worth of socket payload
_RECV_CHUNK = 1 << 20


def describe_error(error: BaseException) -> str:
    """The unsupported-reply rendering of an exception (class + message;
    the codec rule bans ad-hoc ``repr`` coding in wire modules)."""
    return f"{type(error).__name__}: {error}"


class SnapshotCatalog:
    """The peer-side stand-in for ``ASCatalog``: indices only.

    ``database`` is deliberately ``None`` — a snapshot peer (pool worker
    or fleet replica) must never scan base data; any plan shape that
    would need it is reported back as unsupported and re-executed
    in-process by the coordinator.
    """

    def __init__(self, indexes: dict):
        self._indexes = indexes
        self.database = None

    def index_for(self, constraint) -> Any:
        index = self._indexes.get(constraint.name)
        if index is None:
            raise ReproError(
                f"worker snapshot has no index for {constraint.name!r}"
            )
        return index

    def constraints_for(self, relation: str) -> list:
        """The held constraints over ``relation`` (what a delta record
        on that table has to be applied to)."""
        return [
            index.constraint
            for index in self._indexes.values()
            if index.constraint.relation == relation
        ]


def run_plan_task(indexes: dict, task: tuple) -> tuple:  # pragma: no cover - subprocess
    """A peer's answer to one ``MSG_PLAN`` task: the bounded plan run in
    batches over the installed indices. Both peer loops (pool worker,
    fleet replica) call this."""
    _, _, plan, rows_per_batch = task
    try:
        # imported lazily: the executor pulls in the full engine stack,
        # which a peer only needs once it actually serves
        from repro.bounded.executor import BoundedPlanExecutor

        result = BoundedPlanExecutor(
            SnapshotCatalog(indexes),
            executor="columnar",
            rows_per_batch=rows_per_batch,
        ).execute(plan)
        return (REPLY_RESULT, result.columns, result.rows, result.metrics)
    except ReproError as error:
        # semantic failure (bound exceeded, type error): identical to the
        # in-process outcome, so it must propagate, not fall back
        return (REPLY_RAISE, error)
    except Exception as error:  # noqa: BLE001 - infra failure -> the coordinator re-runs the plan in-process
        return (REPLY_UNSUPPORTED, describe_error(error))


class StalePeer(Exception):
    """Internal: the peer's snapshot stayed stale after a re-ship."""


def compute_with_stale_retry(
    *,
    ensure: Callable[[], None],
    roundtrip: Callable[[], tuple],
    on_stale: Callable[[], None],
) -> tuple:
    """The protocol's core state machine, shared by pool and fleet.

    ``ensure`` installs the snapshot if the peer's bookkeeping says it
    is missing; ``roundtrip`` sends the compute task and returns the
    reply; ``on_stale`` records the retry and invalidates the local
    bookkeeping so ``ensure`` re-ships. A peer that answers ``stale``
    twice is lying about its installs and is reported dead via
    :class:`StalePeer` — the caller fails over, it never loops.
    """
    ensure()
    reply = roundtrip()
    if reply[0] == REPLY_STALE:
        on_stale()
        ensure()
        reply = roundtrip()
        if reply[0] == REPLY_STALE:
            raise StalePeer("peer snapshot remained stale after resend")
    return reply


def snapshot_key(
    schema_generation: int, versions: dict[str, int]
) -> tuple[int, tuple]:
    """The snapshot key for a peer covering ``versions``' tables.

    Sorted so two captures of the same state compare equal regardless of
    iteration order — the key is compared with ``==`` on both ends of
    the wire.
    """
    return (schema_generation, tuple(sorted(versions.items())))


# --------------------------------------------------------------------------- #
# the wire: one frame, two channels
# --------------------------------------------------------------------------- #
class WireError(Exception):
    """The connection's framed stream is unusable (EOF, torn frame, CRC
    mismatch, undecodable payload, a pipe or socket failure, a missed
    task deadline). Deliberately not a :class:`~repro.errors.ReproError`:
    a wire failure is infrastructure, the dispatcher falls back to local
    execution and must never surface it as a semantic query error."""


def _frame(payload: bytes) -> bytes:
    try:
        return frame_record(payload)
    except StorageError as error:
        raise WireError(str(error)) from error


def _sendall(sock: socket.socket, data: bytes) -> None:
    try:
        sock.sendall(data)
    except OSError as error:
        raise WireError(f"socket send failed: {error}") from error


def encode_message(message: tuple) -> bytes:
    """One protocol tuple as the frame both transports carry."""
    try:
        payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    except Exception as error:  # noqa: BLE001 - a message that cannot serialize (mid-mutation index, exotic value) must fall back, not crash the serving thread
        raise WireError(f"message failed to serialize: {error}") from error
    return _frame(payload)


def decode_message(payload: bytes) -> tuple:
    """The protocol tuple in one verified frame payload."""
    try:
        message = pickle.loads(payload)
    except Exception as error:  # noqa: BLE001 - a CRC-valid but undecodable payload is still a dead stream, same fallback as corruption
        raise WireError(f"frame payload failed to unpickle: {error}") from error
    if not isinstance(message, tuple) or not message:
        raise WireError(
            f"frame payload is not a protocol tuple: {type(message).__name__}"
        )
    return message


# A frame is checked as :func:`repro.storage.wal.scan_frames` checks a
# logged one: a partial header, an implausible length, a short payload
# and a checksum mismatch are all WireError — on a wire there is no
# valid-prefix recovery, the stream is dead.
def _split_header(header) -> tuple[int, int]:
    try:
        return split_frame_header(header)
    except StorageError as error:
        raise WireError(str(error)) from error


def _checked(payload, checksum: int):
    if not frame_payload_matches(payload, checksum):
        raise WireError("frame checksum mismatch")
    return payload


def recv_exact(sock: socket.socket, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise :class:`WireError`."""
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        try:
            chunk = sock.recv(min(remaining, _RECV_CHUNK))
        except OSError as error:
            raise WireError(f"socket receive failed: {error}") from error
        if not chunk:
            raise WireError(
                f"connection closed {count - remaining} bytes into a "
                f"{count}-byte read"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, payload: bytes) -> int:
    """Send one framed payload; returns the bytes put on the wire."""
    frame = _frame(payload)
    _sendall(sock, frame)
    return len(frame)


def recv_frame(sock: socket.socket) -> bytes:
    """Receive one framed payload, verifying length and CRC."""
    length, checksum = _split_header(recv_exact(sock, FRAME_HEADER_BYTES))
    return _checked(recv_exact(sock, length), checksum)


def send_message(sock: socket.socket, message: tuple) -> int:
    """Pickle + frame + send one protocol tuple; returns wire bytes."""
    return send_frame(sock, pickle.dumps(message, pickle.HIGHEST_PROTOCOL))


def recv_message(sock: socket.socket) -> tuple:
    """Receive one protocol tuple from a verified frame."""
    return decode_message(recv_frame(sock))


class Channel:
    """One end of a peer conversation: protocol tuples in frames.

    A subclass is the only code that knows its transport: its
    ``send_frame(frame)`` puts one frame's bytes on it (a chaos hook may
    hand it a torn one), ``recv_payload()`` takes one verified payload
    off it, waiting at most ``timeout`` seconds (``None``: for ever),
    and ``close()`` ends it. Every failure is a :class:`WireError`.
    """

    def send(self, message: tuple) -> int:
        """Send one protocol tuple; returns the bytes put on the wire."""
        frame = encode_message(message)
        self.send_frame(frame)
        return len(frame)

    def recv(self) -> tuple:
        return decode_message(self.recv_payload())

    def shutdown(self) -> None:
        """End the outgoing stream after a torn frame."""


class PipeChannel(Channel):
    """A duplex ``multiprocessing`` pipe: one frame per pipe message
    (``send_bytes`` / ``recv_bytes``)."""

    def __init__(self, conn, timeout: Optional[float] = None):
        self.conn = conn
        self.timeout = timeout

    def send_frame(self, frame: bytes) -> None:
        try:
            self.conn.send_bytes(frame)
        except (OSError, ValueError) as error:
            raise WireError(f"pipe send failed: {error}") from error

    def recv_payload(self) -> bytes:
        try:
            if self.timeout is not None and not self.conn.poll(self.timeout):
                raise WireError(f"no reply within the {self.timeout}s deadline")
            data = memoryview(self.conn.recv_bytes())
        except (EOFError, OSError) as error:
            raise WireError(f"pipe receive failed: {error}") from error
        length, checksum = _split_header(data[:FRAME_HEADER_BYTES].tobytes())
        payload = data[FRAME_HEADER_BYTES:]
        if len(payload) != length:
            raise WireError(f"a {length}-byte frame arrived with {len(payload)}")
        return _checked(payload, checksum)

    def close(self) -> None:
        with suppress(OSError):
            self.conn.close()


class SocketChannel(Channel):
    """A TCP stream of frames (:func:`send_frame` / :func:`recv_frame`)."""

    def __init__(self, sock: socket.socket, timeout: Optional[float] = None):
        # small request/reply frames: Nagle plus delayed-ACK would stall
        # every round-trip
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(timeout)
        self.sock = sock

    def send_frame(self, frame: bytes) -> None:
        _sendall(self.sock, frame)

    def recv_payload(self) -> bytes:
        return recv_frame(self.sock)

    def shutdown(self) -> None:
        with suppress(OSError):
            self.sock.shutdown(socket.SHUT_WR)

    def close(self) -> None:
        with suppress(OSError):
            self.sock.close()


def connect_with_retry(
    address: tuple[str, int],
    *,
    deadline_seconds: float,
    attempt_timeout: float = 0.25,
    pause_seconds: float = 0.02,
) -> Optional[socket.socket]:
    """Connect to a replica that may still be binding its listener.

    Returns ``None`` when the deadline passes without a connection —
    the caller marks the replica dead and serves locally (graceful
    degradation, never an error on the query path).
    """
    deadline = time.perf_counter() + deadline_seconds
    while True:
        try:
            return socket.create_connection(address, timeout=attempt_timeout)
        except OSError:
            if time.perf_counter() >= deadline:
                return None
            time.sleep(pause_seconds)
