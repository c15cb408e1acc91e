"""Relational storage (S2): in-memory tables plus the persistent engine.

``Table``/``Database`` hold rows in memory; the optional persistent
store (:class:`~repro.storage.mmapstore.MmapStore`, ``mmap`` by its
historical name) keeps a manifest, a write-ahead maintenance log and the
result cache, all through the one canonical value codec in
:mod:`repro.storage.codec`. A warm restart rebuilds the access indices
from the checkpoint's base rows and replays the log.
"""

from repro.storage.table import Table
from repro.storage.database import Database
from repro.storage.csvio import load_csv, dump_csv
from repro.storage.codec import (
    CANONICAL_NAN,
    canonical_key,
    canonical_value,
    decode_value,
    encode_value,
    is_nan,
)
from repro.storage.mmapstore import MmapStore, StorageStats
from repro.storage.wal import WriteAheadLog

__all__ = [
    "Table",
    "Database",
    "load_csv",
    "dump_csv",
    "CANONICAL_NAN",
    "canonical_key",
    "canonical_value",
    "decode_value",
    "encode_value",
    "is_nan",
    "MmapStore",
    "StorageStats",
    "WriteAheadLog",
]
