"""The persistent store: a manifest and a write-ahead maintenance log.

Access indices are derived state — the AS Catalog builds each one from
the base data and the Maintenance module keeps it current under updates
(paper §3) — so what a restart needs besides the base rows is the access
schema and the updates since the last checkpoint. ``MmapStore`` keeps
exactly that under one directory::

    <dir>/MANIFEST.json   # format, database, access schema, generation,
                          # each table's version + fingerprint, the log
    <dir>/wal-<n>.log     # framed maintenance records since checkpoint

The name is historical: the store once kept memory-mapped index
segments. It maps nothing now, and no file it writes at a checkpoint
grows with the size of the data.

A **checkpoint** writes an empty log under the name the current
manifest does not use, then replaces the manifest, which names it. That
replace is the checkpoint's one commit point: a crash before it leaves
the old manifest and the old log, a crash after it the new manifest and
the new (empty) log. Only then is the old log removed.

A **warm restart** (:meth:`MmapStore.try_load`) is handed the base rows
of the last checkpoint. It checks the manifest against them before
building anything, builds every index from those rows, restores the
schema generation and replays the named log (``docs/invariants.md``,
*persistence discipline*).

A WAL record holds a batch's stored rows as JSON values (``"values"``)
when the canonical codec's ``json_gate`` passes them, and as codec text
cells (``"rows"``, ``StorageStats.wal_text_batches``) otherwise; the
beaslint ``storage-codec`` rule keeps ad-hoc value coding out of this
module.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence
from zlib import crc32

from repro.access.io import schema_from_dict, schema_to_dict
from repro.errors import AccessSchemaError, MaintenanceError, StorageError
from repro.maintenance.incremental import apply_delete, apply_insert
from repro.storage.codec import decode_json_rows, decode_row, encode_row
from repro.storage.table import Table
from repro.storage.wal import ReplayReport, WriteAheadLog

MANIFEST_NAME = "MANIFEST.json"
#: a checkpoint starts its log under the name the current manifest does
#: not use, so the log a manifest names is never touched before the
#: manifest that replaces it is in place
LOG_NAMES = ("wal-1.log", "wal-2.log")

#: store format version — bumped on any incompatible layout change
STORE_FORMAT = 2


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def table_fingerprint(table: Table) -> dict:
    """A cheap O(1) identity check for the base data a checkpoint was
    taken over: schema + first/last row + row count + version.  Not
    cryptographic — it guards against *accidentally* warm-loading over a
    different dataset, the same way the CSV header guards column order."""
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
    return {"rows": len(table.rows), "crc": digest, "version": table.version}


def _read_manifest(path: Path) -> Optional[dict]:
    try:
        data = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None


@dataclass
class StorageStats:
    """Point-in-time storage-engine counters (``ServingStats.storage``)."""

    mode: str
    directory: str
    warm_start: bool
    wal_records_replayed: int
    wal_dropped_bytes: int
    wal_records_appended: int
    wal_bytes_appended: int
    wal_text_batches: int
    checkpoints: int

    def describe(self) -> str:
        start = "warm" if self.warm_start else "cold"
        return (
            f"storage {self.mode} at {self.directory}: {start} start, "
            f"WAL {self.wal_records_replayed} replayed "
            f"(+{self.wal_records_appended} appended, "
            f"{self.wal_bytes_appended} B, "
            f"{self.wal_text_batches} in text cells, "
            f"{self.wal_dropped_bytes} B torn-tail dropped), "
            f"{self.checkpoints} checkpoints"
        )


class MmapStore:
    """One persistent store directory (see module docstring).

    Not thread-safe by itself: callers serialise maintenance logging
    the same way they serialise the maintenance it records (the serving
    layer's shard write sections).
    """

    def __init__(self, directory: str | Path, *, sync: bool = False):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.directory / MANIFEST_NAME
        # appends go to the log the manifest names (the first name when
        # there is no readable manifest) until a checkpoint starts another
        named = (_read_manifest(self.manifest_path) or {}).get("wal")
        log = named if named in LOG_NAMES else LOG_NAMES[0]
        self._wal = WriteAheadLog(self.directory / log, sync=sync)
        self.warm_start = False
        self.wal_records_replayed = 0
        self.wal_dropped_bytes = 0
        self.wal_text_batches = 0
        self.checkpoints = 0

    # -- checkpoint ------------------------------------------------------- #
    def checkpoint(self, catalog: Any) -> None:
        """Record the catalog's access schema and its tables' state and
        start an empty log.

        Called after a cold build and after schema-level changes
        (register/unregister), whose effects are not WAL-replayable. The
        manifest replace is the commit point (see module docstring).
        """
        database = catalog.database
        old = self._wal.path
        new = self.directory / (
            LOG_NAMES[1] if old.name == LOG_NAMES[0] else LOG_NAMES[0]
        )
        _atomic_write(new, b"")
        manifest = {
            "format": STORE_FORMAT,
            "database": database.name,
            "access_schema": schema_to_dict(catalog.schema),
            "schema_generation": catalog.schema_generation,
            "tables": {
                name: table_fingerprint(database.table(name))
                for name in database.table_names
            },
            "wal": new.name,
        }
        _atomic_write(
            self.manifest_path,
            (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"),
        )
        self._wal.move_to(new)
        old.unlink(missing_ok=True)
        self.checkpoints += 1

    # -- warm load -------------------------------------------------------- #
    def try_load(self, catalog: Any, access_schema: Any = None) -> bool:
        """Build a fresh (index-less) catalog from the rows it holds and
        replay the log on top.

        Returns False — leaving the catalog untouched, nothing built —
        when the store is empty or unreadable, was written for a
        different database or access schema, or the base data is not the
        data of the checkpoint. Only after every index is built is the
        WAL replayed; per the persistence discipline, no read is served
        from the store before that replay completes.
        """
        manifest = _read_manifest(self.manifest_path)
        database = catalog.database
        if (
            manifest is None
            or manifest.get("format") != STORE_FORMAT
            or manifest.get("database") != database.name
            or manifest.get("wal") != self._wal.path.name
        ):
            return False
        try:
            stored = manifest["access_schema"]
            if access_schema is not None and schema_to_dict(access_schema) != stored:
                return False
            schema = schema_from_dict(stored)
            generation = int(manifest["schema_generation"])
            tables = dict(manifest["tables"])
        except (KeyError, TypeError, ValueError, AccessSchemaError):
            return False
        for name, state in tables.items():
            if name not in database or table_fingerprint(database.table(name)) != state:
                return False
        for constraint in schema:
            if constraint.name not in catalog.schema:
                catalog.schema.add(constraint)
        # the checkpoint's rows: their indices were validated (or, by the
        # caller's choice, not) when they were first built
        catalog.build_all(validate=False)
        catalog.schema_generation = generation
        self.replay_wal(catalog)
        self.warm_start = True
        return True

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
        """Apply the WAL tail to the (just-built) catalog and tables.

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
            catalog.set_bounds({record["constraint"]: record["n"]})
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

    # -- stats / lifecycle ------------------------------------------------- #
    def stats(self) -> StorageStats:
        return StorageStats(
            mode="mmap",
            directory=str(self.directory),
            warm_start=self.warm_start,
            wal_records_replayed=self.wal_records_replayed,
            wal_dropped_bytes=self.wal_dropped_bytes,
            wal_records_appended=self.wal_records_appended,
            wal_bytes_appended=self.wal_bytes_appended,
            wal_text_batches=self.wal_text_batches,
            checkpoints=self.checkpoints,
        )

    def close(self) -> None:
        self._wal.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MmapStore({self.directory})"
