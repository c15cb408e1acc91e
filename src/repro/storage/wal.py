"""Write-ahead maintenance log for the mmap storage engine.

Every maintenance batch the host applies (insert / delete / bound
adjustment) appends one framed record *before* the store's durable
state advances past it — a warm restart replays the tail on top of the
last checkpoint instead of rebuilding access indices from the base data
(O(log replay), not O(index rebuild); see ``docs/invariants.md``,
*persistence discipline*).

Framing (shared with the result-cache log via :func:`frame_record` /
:func:`scan_frames`)::

    u32 payload_len | u32 crc32(payload) | payload

A torn tail — a partial header, a short payload, or a CRC mismatch from
a crash mid-append — is *expected* corruption: :func:`scan_frames`
stops at the first bad frame and reports how many bytes were valid, and
:meth:`WriteAheadLog.replay` truncates the file back to that point so
the next append continues from a consistent prefix.  Corruption in the
*middle* of the log (a bad frame followed by more data) is reported the
same way; everything after the first bad frame is discarded — the WAL
is an ordered history, so a later record must never be applied over a
missing earlier one.

Record payloads are JSON, never pickle: reading a damaged log cannot
run code. Which rows a record holds as JSON values and which as text
cells is the canonical codec's call (:mod:`repro.storage.codec`), so
the WAL can never disagree with the CSV or segment formats about what a
value means. ``allow_nan=False`` is deliberate: the codec sends every
NaN and ±inf to the text cells, so a raw float special in a record is a
bug, and failing the append beats writing a payload that is not JSON.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO, Optional
from zlib import crc32

from repro.errors import StorageError

_FRAME_HEADER = struct.Struct("<II")

#: refuse absurd frame lengths outright (a corrupt header would
#: otherwise make the scanner try to read gigabytes)
MAX_FRAME_BYTES = 1 << 30


#: size of the ``u32 len | u32 crc32`` frame header in bytes — consumers
#: that stream frames (the fleet's socket wire) read exactly this many
#: bytes before :func:`split_frame_header` can interpret them
FRAME_HEADER_BYTES = _FRAME_HEADER.size


def frame_record(payload: bytes) -> bytes:
    """Wrap ``payload`` in the length + CRC frame."""
    if len(payload) > MAX_FRAME_BYTES:
        raise StorageError(
            f"record of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return _FRAME_HEADER.pack(len(payload), crc32(payload)) + payload


def split_frame_header(header: bytes) -> tuple[int, int]:
    """Decode one frame header into ``(payload_length, checksum)``.

    The implausible-length guard matches :func:`scan_frames`: a corrupt
    header must fail here, before a reader tries to allocate or wait for
    gigabytes that will never arrive.
    """
    if len(header) != FRAME_HEADER_BYTES:
        raise StorageError(
            f"frame header must be {FRAME_HEADER_BYTES} bytes, "
            f"got {len(header)}"
        )
    length, checksum = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise StorageError(f"implausible frame length {length}")
    return length, checksum


def frame_payload_matches(payload: bytes, checksum: int) -> bool:
    """True when ``payload`` checks out against its frame header's CRC."""
    return crc32(payload) == checksum


@dataclass
class FrameScan:
    """Result of scanning a framed log: the valid prefix and its end."""

    payloads: list[bytes] = field(default_factory=list)
    valid_bytes: int = 0
    truncated: bool = False  # trailing bytes after the valid prefix
    reason: Optional[str] = None


def scan_frames(data: bytes) -> FrameScan:
    """Decode frames from ``data``, stopping at the first bad one."""
    scan = FrameScan()
    offset = 0
    total = len(data)
    while offset < total:
        if offset + _FRAME_HEADER.size > total:
            scan.truncated = True
            scan.reason = "partial frame header"
            return scan
        length, checksum = _FRAME_HEADER.unpack_from(data, offset)
        if length > MAX_FRAME_BYTES:
            scan.truncated = True
            scan.reason = f"implausible frame length {length}"
            return scan
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > total:
            scan.truncated = True
            scan.reason = "short frame payload"
            return scan
        payload = data[start:end]
        if crc32(payload) != checksum:
            scan.truncated = True
            scan.reason = "frame checksum mismatch"
            return scan
        scan.payloads.append(payload)
        scan.valid_bytes = end
        offset = end
    return scan


@dataclass
class ReplayReport:
    """What :meth:`WriteAheadLog.replay` recovered."""

    records: list[dict]
    truncated: bool
    dropped_bytes: int
    reason: Optional[str] = None


class WriteAheadLog:
    """An append-only framed JSON record log.

    ``sync=True`` fsyncs every append (the durability the crash tests
    exercise); the default leaves flushing to the OS, which is the
    right trade for the benchmark workloads.
    """

    def __init__(self, path: str | Path, *, sync: bool = False):
        self.path = Path(path)
        self._sync = sync
        self._handle: Optional[BinaryIO] = None
        #: maintenance on different tables appends from different shard
        #: write sections: one handle, whole frames, counted once
        self._lock = threading.Lock()
        self.records_appended = 0
        self.bytes_appended = 0

    # ------------------------------------------------------------------ #
    def _file(self) -> BinaryIO:
        if self._handle is None or self._handle.closed:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, "ab")
        return self._handle

    def append(self, record: dict) -> int:
        """Append one record; returns the frame's size in bytes."""
        payload = json.dumps(
            record, separators=(",", ":"), sort_keys=True, allow_nan=False
        ).encode("utf-8")
        frame = frame_record(payload)
        with self._lock:
            handle = self._file()
            handle.write(frame)
            handle.flush()
            if self._sync:
                os.fsync(handle.fileno())
            self.records_appended += 1
            self.bytes_appended += len(frame)
        return len(frame)

    def close(self) -> None:
        if self._handle is not None and not self._handle.closed:
            self._handle.close()
        self._handle = None

    # ------------------------------------------------------------------ #
    def replay(self, *, repair: bool = True) -> ReplayReport:
        """Read every intact record; optionally truncate a torn tail.

        Never raises on corruption — a torn tail is the normal shape of
        a crash, and the caller recovers to the longest consistent
        prefix.  With ``repair=True`` (default) the file is truncated
        back to that prefix so subsequent appends extend valid history.
        """
        self.close()
        if not self.path.exists():
            return ReplayReport(records=[], truncated=False, dropped_bytes=0)
        data = self.path.read_bytes()
        scan = scan_frames(data)
        records: list[dict] = []
        valid_bytes = 0
        offset = 0
        for payload in scan.payloads:
            offset += _FRAME_HEADER.size + len(payload)
            try:
                record = json.loads(payload.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                scan.truncated = True
                scan.reason = "frame payload is not valid JSON"
                break
            if not isinstance(record, dict):
                scan.truncated = True
                scan.reason = "frame payload is not a JSON object"
                break
            records.append(record)
            valid_bytes = offset
        dropped = len(data) - valid_bytes
        if scan.truncated and repair:
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_bytes)
        return ReplayReport(
            records=records,
            truncated=scan.truncated,
            dropped_bytes=dropped,
            reason=scan.reason,
        )

    def reset(self) -> None:
        """Drop all records (called right after a checkpoint rewrites
        the segments — the log's history is now baked into them)."""
        self.close()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "wb"):
            pass

    def size_bytes(self) -> int:
        if self._handle is not None and not self._handle.closed:
            self._handle.flush()
        return self.path.stat().st_size if self.path.exists() else 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"WriteAheadLog({self.path}, appended={self.records_appended})"
