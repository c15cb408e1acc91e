"""Disk-backed, memory-mapped storage engine for access indices.

``MmapStore`` persists the AS Catalog's index buckets (one segment file
per constraint), the serving result cache, and a write-ahead
maintenance log (:mod:`repro.storage.wal`) under one directory::

    <dir>/MANIFEST.json      # format, database identity, versions
    <dir>/segments/*.seg     # one per access constraint
    <dir>/wal.log            # framed maintenance records since checkpoint
    <dir>/results.log        # framed result-cache entries

A **warm restart** (``BEAS_STORAGE=mmap`` with a populated directory)
maps the segment files instead of rebuilding indices from the base
rows, then replays the WAL tail — O(log replay), not O(index rebuild).
The same segment encoding, concatenated, is the **shared-memory
snapshot wire**: the engine pool's master exports one
``multiprocessing.shared_memory`` block per (schema generation, table
version vector) snapshot key and workers attach it zero-copy, falling
back to the pickle wire on any failure.

Every value crossing these boundaries goes through the canonical codec
(:mod:`repro.storage.codec`) — the beaslint ``storage-codec`` rule
keeps ad-hoc value coding out of this module's formats. Segments hold
text cells; a WAL record holds a batch's stored rows as JSON values
(``"values"``) when the codec's ``json_gate`` passes them, and as text
cells (``"rows"``, ``StorageStats.wal_text_batches``) otherwise.

Segment layout (all integers little-endian u32)::

    b"BSEG0001" | header_len | blob_len | crc32(header+blob)
               | header JSON | bucket blob

The header carries the constraint, positions, dtypes, summary
statistics, and a key directory (codec-encoded key tuples with
``[offset, length]`` spans into the blob).  The blob stores each
bucket as ``n_entries`` then per entry ``support_count`` and
length-prefixed codec-encoded Y parts.  :class:`MappedAccessIndex`
decodes the directory eagerly (O(keys)) and buckets lazily on first
touch, with copy-on-write overlays for post-load maintenance.
"""

from __future__ import annotations

import json
import mmap
import os
import pickle
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Optional, Sequence

from zlib import crc32

from repro.access.constraint import AccessConstraint
from repro.access.index import AccessIndex, Key
from repro.access.io import schema_from_dict, schema_to_dict
from repro.catalog.schema import TableSchema
from repro.catalog.types import DataType
from repro.errors import AccessSchemaError, MaintenanceError, StorageError
from repro.maintenance.incremental import apply_delete, apply_insert
from repro.storage.codec import canonical_key, decode_row, encode_row, is_nan
from repro.storage.codec import decode_json_rows
from repro.storage.database import Database
from repro.storage.table import Table
from repro.storage.wal import ReplayReport, WriteAheadLog, frame_record, scan_frames

MAGIC_SEGMENT = b"BSEG0001"
MAGIC_SNAPSHOT = b"BSNP0001"

_U32 = struct.Struct("<I")
_SEGMENT_PREFIX = struct.Struct("<III")  # header_len, blob_len, crc32

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.log"
RESULTS_NAME = "results.log"
SEGMENTS_DIR = "segments"

#: store format version — bumped on any incompatible layout change
STORE_FORMAT = 1


# --------------------------------------------------------------------------- #
# the mapped index: lazy buckets over a segment buffer
# --------------------------------------------------------------------------- #
class MappedAccessIndex(AccessIndex):
    """An :class:`AccessIndex` whose buckets live in a mapped buffer.

    The key directory is decoded eagerly; bucket payloads decode on
    first touch and are cached.  Mutation (WAL replay, live
    maintenance) first moves the batch's buckets out of the directory
    into the overlay (``_open``) — from then on ``_buckets`` is all that
    is known of those keys, an emptied one included — so the mapped
    bytes stay read-only and a *different* process mapping the same
    segment is unaffected.  ``snapshot()``/``entry_count`` after
    mutation materialise everything and behave exactly like the
    in-memory index.
    """

    def __init__(
        self,
        constraint: AccessConstraint,
        *,
        x_positions: Sequence[int],
        y_positions: Sequence[int],
        floats: Sequence[int],
        built_from: Optional[str],
        y_dtypes: Sequence[DataType],
        buffer: Any,
        blob_base: int,
        directory: dict[Key, tuple[int, int]],
        segment_span: tuple[int, int],
        key_count: int,
        entry_count: int,
        max_bucket_size: int,
    ):
        super().__init__(constraint)
        self._lay_out(x_positions, y_positions, floats)
        self._built_from = built_from
        self._y_dtypes = tuple(y_dtypes)
        self._buffer = buffer
        self._blob_base = blob_base
        # keys whose bucket still sits in the buffer, unedited
        self._lazy: dict[Key, tuple[int, int]] = directory
        self._segment_span = segment_span
        self._mutated = False
        self._hint_key_count = key_count
        self._hint_entry_count = entry_count
        self._hint_max_bucket = max_bucket_size

    # -- lazy decoding --------------------------------------------------- #
    def _decode_bucket(self, key: Key) -> dict:
        offset, _length = self._lazy[key]
        view = memoryview(self._buffer)
        pos = self._blob_base + offset
        (n_entries,) = _U32.unpack_from(view, pos)
        pos += _U32.size
        width = len(self._y_dtypes)
        bucket: dict = {}
        for _ in range(n_entries):
            (count,) = _U32.unpack_from(view, pos)
            pos += _U32.size
            parts = []
            for _ in range(width):
                (part_len,) = _U32.unpack_from(view, pos)
                pos += _U32.size
                parts.append(bytes(view[pos : pos + part_len]).decode("utf-8"))
                pos += part_len
            bucket[decode_row(parts, self._y_dtypes)] = count
        return bucket

    def _bucket_cached(self, key: Key) -> Optional[dict]:
        bucket = self._buckets.get(key)
        if bucket is not None:
            return bucket
        if key not in self._lazy:
            return None
        bucket = self._decode_bucket(key)
        self._buckets[key] = bucket
        return bucket

    def _materialize_all(self) -> None:
        for key in list(self._lazy):
            if key not in self._buckets:
                self._buckets[key] = self._decode_bucket(key)
        self._lazy = {}
        self._buffer = None

    # -- AccessIndex surface, overlay-aware ------------------------------ #
    def build(self, table: Table, *, validate: bool = True) -> "AccessIndex":
        self._lazy = {}
        self._buffer = None
        return super().build(table, validate=validate)

    def _open(self, keys: list[Key]) -> None:
        self._mutated = True
        lazy, buckets = self._lazy, self._buckets
        if lazy:
            for key in keys:
                if key in lazy:
                    if key not in buckets:
                        buckets[key] = self._decode_bucket(key)
                    del lazy[key]

    def fetch(self, key: Key) -> list:
        if key.__class__ is not tuple:
            key = tuple(key)
        if None in key or (self._x_float and any(map(is_nan, key))):
            return []
        bucket = self._bucket_cached(key)
        return [] if bucket is None else list(bucket)

    def __contains__(self, key: Key) -> bool:
        key = canonical_key(key)
        return key in self._buckets or key in self._lazy

    def keys(self):
        for key in self._buckets:
            yield key
        for key in self._lazy:
            if key not in self._buckets:
                yield key

    @property
    def key_count(self) -> int:
        if not self._mutated and self._lazy:
            return self._hint_key_count
        extra = sum(1 for key in self._lazy if key not in self._buckets)
        return len(self._buckets) + extra

    @property
    def entry_count(self) -> int:
        if not self._mutated and self._lazy:
            return self._hint_entry_count
        if self._lazy:
            self._materialize_all()
        return super().entry_count

    @property
    def max_bucket_size(self) -> int:
        if not self._mutated and self._lazy:
            return self._hint_max_bucket
        if self._lazy:
            self._materialize_all()
        return super().max_bucket_size

    def snapshot(self) -> dict:
        if self._lazy:
            self._materialize_all()
        return super().snapshot()

    # -- persistence hooks ------------------------------------------------ #
    def raw_segment_bytes(self) -> Optional[bytes]:
        """The original segment, byte-exact, while unmutated (fast
        re-export path); ``None`` once the overlay diverged."""
        if self._mutated or self._buffer is None:
            return None
        start, end = self._segment_span
        return bytes(memoryview(self._buffer)[start:end])

    def __reduce__(self):
        # the pickle wire (pool fallback) ships a plain materialised index
        return (
            _plain_index_from_state,
            (
                self.constraint,
                self._x_positions,
                self._y_positions,
                self._floats,
                self._built_from,
                self.snapshot(),
            ),
        )

    def __repr__(self) -> str:
        return (
            f"MappedAccessIndex({self.constraint.name}: "
            f"{self.key_count} keys, mutated={self._mutated})"
        )


def _plain_index_from_state(
    constraint: AccessConstraint,
    x_positions: Sequence[int],
    y_positions: Sequence[int],
    floats: Sequence[int],
    built_from: Optional[str],
    buckets: dict,
) -> AccessIndex:
    index = AccessIndex(constraint)
    index._lay_out(x_positions, y_positions, floats)
    index._built_from = built_from
    # re-canonicalise: NaN identity does not survive the pickle wire
    index._buckets = {
        canonical_key(key): {
            canonical_key(y_value): count for y_value, count in bucket.items()
        }
        for key, bucket in buckets.items()
    }
    return index


# --------------------------------------------------------------------------- #
# segment encode/decode
# --------------------------------------------------------------------------- #
def _index_dtypes(
    constraint: AccessConstraint, table_schema: TableSchema
) -> tuple[list[DataType], list[DataType]]:
    columns = {column.name: column.dtype for column in table_schema.columns}
    try:
        x_dtypes = [columns[name] for name in constraint.x]
        y_dtypes = [columns[name] for name in constraint.y]
    except KeyError as exc:
        raise StorageError(
            f"constraint {constraint.name!r} references unknown column {exc}"
        ) from None
    return x_dtypes, y_dtypes


def encode_index_segment(index: AccessIndex, table_schema: TableSchema) -> bytes:
    """Serialise one index to its segment bytes."""
    if isinstance(index, MappedAccessIndex):
        raw = index.raw_segment_bytes()
        if raw is not None:
            return raw
    x_dtypes, y_dtypes = _index_dtypes(index.constraint, table_schema)
    if isinstance(index, MappedAccessIndex):
        index._materialize_all()
    blob = bytearray()
    keys: list[list[str]] = []
    offsets: list[list[int]] = []
    entry_count = 0
    max_bucket = 0
    for key, bucket in index._buckets.items():
        start = len(blob)
        blob += _U32.pack(len(bucket))
        for y_value, count in bucket.items():
            blob += _U32.pack(count)
            for part in encode_row(y_value, y_dtypes):
                encoded = part.encode("utf-8")
                blob += _U32.pack(len(encoded))
                blob += encoded
        keys.append(encode_row(key, x_dtypes))
        offsets.append([start, len(blob) - start])
        entry_count += len(bucket)
        max_bucket = max(max_bucket, len(bucket))
    header = {
        "constraint": {
            "name": index.constraint.name,
            "relation": index.constraint.relation,
            "x": list(index.constraint.x),
            "y": list(index.constraint.y),
            "n": index.constraint.n,
        },
        "x_positions": list(index._x_positions),
        "y_positions": list(index._y_positions),
        "built_from": index._built_from,
        "x_dtypes": [dtype.value for dtype in x_dtypes],
        "y_dtypes": [dtype.value for dtype in y_dtypes],
        "key_count": len(keys),
        "entry_count": entry_count,
        "max_bucket_size": max_bucket,
        "keys": keys,
        "offsets": offsets,
    }
    header_bytes = json.dumps(
        header, separators=(",", ":"), sort_keys=True, allow_nan=False
    ).encode("utf-8")
    body = header_bytes + bytes(blob)
    return b"".join(
        (
            MAGIC_SEGMENT,
            _SEGMENT_PREFIX.pack(len(header_bytes), len(blob), crc32(body)),
            body,
        )
    )


def decode_index_segment(
    buffer: Any, offset: int = 0
) -> tuple[MappedAccessIndex, int]:
    """Open one segment at ``offset`` in ``buffer``.

    Returns the mapped index and the offset one past the segment's end.
    Raises :class:`StorageError` on a bad magic, a truncated body, or a
    checksum mismatch — half-written segment files never load.
    """
    view = memoryview(buffer)
    # released on EVERY exit: a raised StorageError keeps this frame (and
    # the view) alive in the caller's traceback, and an un-released view
    # over an mmap makes mmap.close() raise BufferError — turning the
    # cold-rebuild fallback into a crash. The success-path index reads
    # through ``buffer`` directly, never this view.
    try:
        total = len(view)
        prefix_end = offset + len(MAGIC_SEGMENT) + _SEGMENT_PREFIX.size
        if prefix_end > total:
            raise StorageError("truncated segment: incomplete prefix")
        if bytes(view[offset : offset + len(MAGIC_SEGMENT)]) != MAGIC_SEGMENT:
            raise StorageError("bad segment magic")
        header_len, blob_len, checksum = _SEGMENT_PREFIX.unpack_from(
            view, offset + len(MAGIC_SEGMENT)
        )
        header_start = prefix_end
        blob_start = header_start + header_len
        end = blob_start + blob_len
        if end > total:
            raise StorageError("truncated segment: body shorter than declared")
        if crc32(view[header_start:end]) != checksum:
            raise StorageError("segment checksum mismatch")
        try:
            header = json.loads(
                bytes(view[header_start:blob_start]).decode("utf-8")
            )
        except (ValueError, UnicodeDecodeError) as exc:
            raise StorageError(f"unreadable segment header: {exc}") from None
    finally:
        view.release()
    try:
        spec = header["constraint"]
        constraint = AccessConstraint(
            spec["relation"],
            list(spec["x"]),
            list(spec["y"]),
            spec["n"],
            name=spec["name"],
        )
        x_dtypes = [DataType(name) for name in header["x_dtypes"]]
        y_dtypes = [DataType(name) for name in header["y_dtypes"]]
        directory: dict[Key, tuple[int, int]] = {}
        for cells, (bucket_offset, bucket_len) in zip(
            header["keys"], header["offsets"]
        ):
            directory[decode_row(cells, x_dtypes)] = (bucket_offset, bucket_len)
        # which X / Y cells are FLOAT columns, as row positions
        floats = [
            position
            for position, dtype in zip(
                header["x_positions"] + header["y_positions"], x_dtypes + y_dtypes
            )
            if dtype is DataType.FLOAT
        ]
        index = MappedAccessIndex(
            constraint,
            x_positions=header["x_positions"],
            y_positions=header["y_positions"],
            floats=floats,
            built_from=header["built_from"],
            y_dtypes=y_dtypes,
            buffer=buffer,
            blob_base=blob_start,
            directory=directory,
            segment_span=(offset, end),
            key_count=header["key_count"],
            entry_count=header["entry_count"],
            max_bucket_size=header["max_bucket_size"],
        )
    except (KeyError, TypeError, ValueError, AccessSchemaError) as exc:
        raise StorageError(f"malformed segment header: {exc!r}") from exc
    return index, end


# --------------------------------------------------------------------------- #
# snapshot container (the shared-memory wire)
# --------------------------------------------------------------------------- #
def encode_snapshot(
    index_map: dict[str, AccessIndex],
    schema_for: Callable[[str], TableSchema],
) -> bytes:
    """Concatenate every index's segment into one snapshot blob.

    Every constraint is enumerated — **including indices whose bucket
    map is empty**.  An empty index must still install under its full
    snapshot key: dropping it would make "no matching rows" look like
    "worker snapshot has no index for this constraint" on the worker
    (the empty-bucket pickling bug this PR's sweep fixed).
    """
    parts = [MAGIC_SNAPSHOT, _U32.pack(len(index_map))]
    for name in sorted(index_map):
        index = index_map[name]
        segment = encode_index_segment(
            index, schema_for(index.constraint.relation)
        )
        parts.append(_U32.pack(len(segment)))
        parts.append(segment)
    return b"".join(parts)


def decode_snapshot(buffer: Any) -> dict[str, MappedAccessIndex]:
    """Open every segment of a snapshot blob (zero-copy, lazy buckets)."""
    view = memoryview(buffer)
    base = len(MAGIC_SNAPSHOT)
    if len(view) < base + _U32.size:
        raise StorageError("truncated snapshot container")
    if bytes(view[:base]) != MAGIC_SNAPSHOT:
        raise StorageError("bad snapshot magic")
    (count,) = _U32.unpack_from(view, base)
    position = base + _U32.size
    indexes: dict[str, MappedAccessIndex] = {}
    for _ in range(count):
        if position + _U32.size > len(view):
            raise StorageError("truncated snapshot container")
        (segment_len,) = _U32.unpack_from(view, position)
        position += _U32.size
        index, end = decode_index_segment(buffer, position)
        if end != position + segment_len:
            raise StorageError("snapshot segment length mismatch")
        indexes[index.constraint.name] = index
        position = end
    return indexes


# --------------------------------------------------------------------------- #
# manifest helpers
# --------------------------------------------------------------------------- #
def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def table_fingerprint(table: Table) -> dict:
    """A cheap O(1) identity check for the base data a checkpoint was
    taken over: schema + first/last row + row count.  Not cryptographic
    — it guards against *accidentally* warm-loading over a different
    dataset, the same way the CSV header guards column order."""
    dtypes = table.schema.dtypes
    schema_text = ",".join(
        f"{column.name}:{column.dtype.value}" for column in table.schema.columns
    )
    digest = crc32(schema_text.encode("utf-8"))
    if table.rows:
        first = "\x1f".join(encode_row(table.rows[0], dtypes))
        last = "\x1f".join(encode_row(table.rows[-1], dtypes))
        digest = crc32(first.encode("utf-8"), digest)
        digest = crc32(last.encode("utf-8"), digest)
    return {"rows": len(table.rows), "crc": digest}


def _segment_filename(name: str, taken: set[str]) -> str:
    safe = "".join(
        ch if ch.isalnum() or ch in "-_." else "_" for ch in name
    ) or "constraint"
    candidate = f"{safe}.seg"
    serial = 1
    while candidate in taken:
        candidate = f"{safe}~{serial}.seg"
        serial += 1
    taken.add(candidate)
    return candidate


# --------------------------------------------------------------------------- #
# stats
# --------------------------------------------------------------------------- #
@dataclass
class StorageStats:
    """Point-in-time storage-engine counters (``ServingStats.storage``)."""

    mode: str
    directory: str
    warm_start: bool
    segments_loaded: int
    wal_records_replayed: int
    wal_dropped_bytes: int
    wal_records_appended: int
    wal_bytes_appended: int
    wal_text_batches: int
    checkpoints: int
    shm_exports: int
    shm_export_bytes: int
    result_entries_saved: int
    result_entries_loaded: int

    def describe(self) -> str:
        start = "warm" if self.warm_start else "cold"
        return (
            f"storage {self.mode} at {self.directory}: {start} start, "
            f"{self.segments_loaded} segments mapped, "
            f"WAL {self.wal_records_replayed} replayed "
            f"(+{self.wal_records_appended} appended, "
            f"{self.wal_bytes_appended} B, "
            f"{self.wal_text_batches} in text cells, "
            f"{self.wal_dropped_bytes} B torn-tail dropped), "
            f"{self.checkpoints} checkpoints, "
            f"{self.shm_exports} shm exports ({self.shm_export_bytes} B), "
            f"results {self.result_entries_saved} saved / "
            f"{self.result_entries_loaded} loaded"
        )


# --------------------------------------------------------------------------- #
# the store
# --------------------------------------------------------------------------- #
class MmapStore:
    """One persistent store directory (see module docstring).

    Not thread-safe by itself: callers serialise maintenance logging
    the same way they serialise the maintenance it records (the serving
    layer's shard write sections).  The shared-memory exporter has its
    own lock because pool dispatch can race across worker threads.
    """

    def __init__(self, directory: str | Path, *, sync: bool = False):
        self.directory = Path(directory)
        (self.directory / SEGMENTS_DIR).mkdir(parents=True, exist_ok=True)
        self._wal = WriteAheadLog(self.directory / WAL_NAME, sync=sync)
        self._mapped: list[tuple[BinaryIO, mmap.mmap]] = []
        self._shm: Any = None
        self._shm_key: Any = None
        self._shm_lock = threading.Lock()
        self.warm_start = False
        self.segments_loaded = 0
        self.wal_records_replayed = 0
        self.wal_dropped_bytes = 0
        self.wal_text_batches = 0
        self.checkpoints = 0
        self.shm_exports = 0
        self.shm_export_bytes = 0
        self.result_entries_saved = 0
        self.result_entries_loaded = 0

    # -- paths ------------------------------------------------------------ #
    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def wal_path(self) -> Path:
        return self.directory / WAL_NAME

    @property
    def results_path(self) -> Path:
        return self.directory / RESULTS_NAME

    # -- manifest --------------------------------------------------------- #
    def _read_manifest(self) -> Optional[dict]:
        try:
            data = json.loads(self.manifest_path.read_text())
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def _write_manifest(self, manifest: dict) -> None:
        _atomic_write(
            self.manifest_path,
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode(
                "utf-8"
            ),
        )

    # -- checkpoint ------------------------------------------------------- #
    def checkpoint(self, catalog: Any) -> None:
        """Rewrite every segment + the manifest; reset the WAL.

        Called after a cold build and after schema-level changes
        (register/unregister), whose effects are not WAL-replayable.
        """
        segments_dir = self.directory / SEGMENTS_DIR
        segments_dir.mkdir(parents=True, exist_ok=True)
        segment_map: dict[str, str] = {}
        taken: set[str] = set()
        for constraint in catalog.schema:
            index = catalog.index_for(constraint)
            table = catalog.database.table(constraint.relation)
            data = encode_index_segment(index, table.schema)
            filename = _segment_filename(constraint.name, taken)
            _atomic_write(segments_dir / filename, data)
            segment_map[constraint.name] = f"{SEGMENTS_DIR}/{filename}"
        for stale in segments_dir.glob("*.seg"):
            if stale.name not in taken:
                stale.unlink(missing_ok=True)
        database: Database = catalog.database
        manifest = {
            "format": STORE_FORMAT,
            "database": database.name,
            "access_schema": schema_to_dict(catalog.schema),
            "schema_generation": catalog.schema_generation,
            "versions": {
                name: database.table(name).version
                for name in database.table_names
            },
            "tables": {
                name: table_fingerprint(database.table(name))
                for name in database.table_names
            },
            "segments": segment_map,
        }
        self._write_manifest(manifest)
        self._wal.reset()
        self.checkpoints += 1

    # -- warm load -------------------------------------------------------- #
    def try_load(self, catalog: Any, access_schema: Any = None) -> bool:
        """Install persisted indices into a fresh (index-less) catalog.

        Returns False — leaving the catalog untouched — when the store
        is empty, was written for a different database/access schema,
        or the base data no longer matches the checkpoint.  Segment
        corruption also returns False (the caller cold-rebuilds).  Only
        after the mapped indices are installed is the WAL tail
        replayed; per the persistence discipline, no read is served
        from the store before that replay completes.
        """
        manifest = self._read_manifest()
        if manifest is None or manifest.get("format") != STORE_FORMAT:
            return False
        if manifest.get("database") != catalog.database.name:
            return False
        stored_schema = manifest.get("access_schema")
        try:
            schema = schema_from_dict(stored_schema)
        except AccessSchemaError:
            return False
        if access_schema is not None and schema_to_dict(
            access_schema
        ) != stored_schema:
            return False
        versions = manifest.get("versions", {})
        tables = manifest.get("tables", {})
        for name, recorded in tables.items():
            if name not in catalog.database:
                return False
            table = catalog.database.table(name)
            if table_fingerprint(table) != recorded:
                return False
            if table.version != versions.get(name):
                return False
        segment_map = manifest.get("segments", {})
        opened: list[tuple[BinaryIO, mmap.mmap]] = []
        loaded: list[tuple[AccessConstraint, MappedAccessIndex]] = []
        try:
            for constraint in schema:
                relpath = segment_map.get(constraint.name)
                if relpath is None:
                    raise StorageError(
                        f"manifest lists no segment for {constraint.name!r}"
                    )
                index, handles = self._open_segment(self.directory / relpath)
                opened.append(handles)
                if index.constraint != constraint:
                    raise StorageError(
                        f"segment constraint mismatch for {constraint.name!r}"
                    )
                loaded.append((constraint, index))
        except (OSError, StorageError):
            for handle, mapping in opened:
                mapping.close()
                handle.close()
            return False
        for constraint, index in loaded:
            catalog.install_index(constraint, index)
        self._mapped.extend(opened)
        catalog.schema_generation = int(manifest.get("schema_generation", 0))
        self.replay_wal(catalog)
        self.warm_start = True
        self.segments_loaded += len(loaded)
        return True

    def _open_segment(
        self, path: Path
    ) -> tuple[MappedAccessIndex, tuple[BinaryIO, mmap.mmap]]:
        handle = open(path, "rb")
        try:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            handle.close()
            raise StorageError(f"cannot map segment {path.name}") from None
        try:
            index, _end = decode_index_segment(mapping)
        except StorageError:
            mapping.close()
            handle.close()
            raise
        return index, (handle, mapping)

    # -- WAL -------------------------------------------------------------- #
    def log_insert(self, table: Table, rows: Iterable[Sequence[Any]]) -> None:
        """Append one committed insert batch (call under the same write
        section that applied it, before any reader sees the version)."""
        self.log_batch("insert", table, list(rows))

    def log_delete(self, table: Table, rows: Iterable[Sequence[Any]]) -> None:
        self.log_batch("delete", table, list(rows))

    def log_batch(self, op: str, table: Table, rows: list) -> None:
        """Append a committed batch of the *stored* rows, as the table
        held them. A batch the table's JSON gate passes is logged as it
        is (``"values"``); any other in codec text cells (``"rows"``),
        which spell every NaN ``nan`` and so need no canonical_key pass."""
        record = {"op": op, "table": table.schema.name, "version": table.version}
        if table.plan.json_native(rows):
            record["values"] = rows
        else:
            dtypes = table.schema.dtypes
            record["rows"] = [encode_row(row, dtypes) for row in rows]
            self.wal_text_batches += 1
        self._wal.append(record)

    def log_adjust(self, constraint_name: str, n: int) -> None:
        self._wal.append(
            {"op": "adjust", "constraint": constraint_name, "n": n}
        )

    def replay_wal(self, catalog: Any) -> ReplayReport:
        """Apply the WAL tail to the (just-loaded) catalog and tables.

        A torn tail is truncated and everything before it applied; the
        recovered state is the last fully-logged batch — exactly what a
        crash between apply and append should recover to.
        """
        report = self._wal.replay(repair=True)
        for record in report.records:
            self._apply_record(catalog, record)
        self.wal_records_replayed += len(report.records)
        self.wal_dropped_bytes += report.dropped_bytes
        return report

    def _apply_record(self, catalog: Any, record: dict) -> None:
        op = record.get("op")
        if op == "adjust":
            name = record["constraint"]
            current = catalog.schema.get(name)
            widened = AccessConstraint(
                current.relation,
                list(current.x),
                list(current.y),
                record["n"],
                name=name,
            )
            index = catalog.index_for(current)
            catalog.schema.remove(name)
            catalog.schema.add(widened)
            index.constraint = widened
            catalog.note_schema_change()
            return
        if op not in ("insert", "delete"):
            raise StorageError(f"unknown WAL op {op!r}")
        table = catalog.database.table(record["table"])
        dtypes = table.schema.dtypes
        if "values" in record:
            rows = decode_json_rows(record["values"], dtypes)
        else:
            rows = [decode_row(cells, dtypes) for cells in record["rows"]]
        if op == "insert":
            apply_insert(catalog, record["table"], rows, validate=False)
        else:
            try:
                apply_delete(catalog, record["table"], rows)
            except MaintenanceError:
                raise StorageError(
                    f"WAL delete for {record['table']!r} references rows "
                    "missing from the base data — store and dataset diverged"
                ) from None
        table.version = int(record["version"])

    @property
    def wal_records_appended(self) -> int:
        return self._wal.records_appended

    @property
    def wal_bytes_appended(self) -> int:
        return self._wal.bytes_appended

    # -- result-cache persistence ----------------------------------------- #
    def save_results(self, entries: list[tuple[Any, Any]]) -> int:
        """Persist result-cache entries as framed pickled records.

        Entries are ``(key, value)`` pairs.  Pickle is the
        right wire here — values carry plan/decision objects that
        already cross the pool boundary pickled; the CRC framing (same
        as the WAL) detects torn writes, and freshness is re-validated
        against versions/generation by whoever reinstalls them, never
        assumed.
        """
        frames = bytearray()
        for entry in entries:
            frames += frame_record(pickle.dumps(entry, pickle.HIGHEST_PROTOCOL))
        _atomic_write(self.results_path, bytes(frames))
        self.result_entries_saved = len(entries)
        return len(entries)

    def load_results(self) -> list[tuple[Any, Any]]:
        """Read back every intact persisted result entry (torn tail,
        unpicklable entries and an older layout's triples are dropped,
        never served)."""
        try:
            data = self.results_path.read_bytes()
        except OSError:
            return []
        scan = scan_frames(data)
        entries: list[tuple[Any, Any]] = []
        for payload in scan.payloads:
            try:
                key, value = pickle.loads(payload)
            except Exception:  # noqa: BLE001 - arbitrary pickle failure just drops the entry
                continue
            entries.append((key, value))
        self.result_entries_loaded = len(entries)
        return entries

    # -- shared-memory snapshot export ------------------------------------ #
    def snapshot_exporter(
        self, catalog: Any
    ) -> Callable[[Any, Callable[[], dict]], Optional[str]]:
        """A callable for ``EnginePool(snapshot_exporter=...)``.

        Returns the shared-memory block name for a snapshot key, or
        ``None`` on any failure — the pool then falls back to the
        pickle wire in the same dispatch.
        """

        def export(key: Any, payload_fn: Callable[[], dict]) -> Optional[str]:
            try:
                return self._export_snapshot(key, payload_fn, catalog)
            except Exception:  # noqa: BLE001 - any export failure must fall back to the pickle wire
                return None

        return export

    def _export_snapshot(
        self, key: Any, payload_fn: Callable[[], dict], catalog: Any
    ) -> Optional[str]:
        from multiprocessing import shared_memory

        with self._shm_lock:
            if self._shm is not None and self._shm_key == key:
                return self._shm.name
            blob = encode_snapshot(
                payload_fn(),
                lambda relation: catalog.database.table(relation).schema,
            )
            block = shared_memory.SharedMemory(
                create=True, size=max(1, len(blob))
            )
            block.buf[: len(blob)] = blob
            previous = self._shm
            self._shm = block
            self._shm_key = key
            if previous is not None:
                try:
                    previous.close()
                    previous.unlink()
                except OSError:
                    pass
            self.shm_exports += 1
            self.shm_export_bytes += len(blob)
            return block.name

    # -- stats / lifecycle ------------------------------------------------- #
    def stats(self) -> StorageStats:
        return StorageStats(
            mode="mmap",
            directory=str(self.directory),
            warm_start=self.warm_start,
            segments_loaded=self.segments_loaded,
            wal_records_replayed=self.wal_records_replayed,
            wal_dropped_bytes=self.wal_dropped_bytes,
            wal_records_appended=self.wal_records_appended,
            wal_bytes_appended=self.wal_bytes_appended,
            wal_text_batches=self.wal_text_batches,
            checkpoints=self.checkpoints,
            shm_exports=self.shm_exports,
            shm_export_bytes=self.shm_export_bytes,
            result_entries_saved=self.result_entries_saved,
            result_entries_loaded=self.result_entries_loaded,
        )

    def close(self) -> None:
        self._wal.close()
        for handle, mapping in self._mapped:
            try:
                mapping.close()
            except (BufferError, ValueError):
                pass
            handle.close()
        self._mapped = []
        with self._shm_lock:
            if self._shm is not None:
                try:
                    self._shm.close()
                    self._shm.unlink()
                except OSError:
                    pass
                self._shm = None
                self._shm_key = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MmapStore({self.directory})"
