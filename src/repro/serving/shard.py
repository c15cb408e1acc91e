"""Sharding primitives for the concurrent serving layer.

The serving layer partitions its state by table so that maintenance on
one relation never blocks reads of another:

* :class:`ShardLock` — an instrumented reader/writer lock (writer
  preference, lock-wait accounting) guarding one shard's table data and
  its access indices;
* :class:`Shard` — one table's lock and maintenance counter
  (:class:`TableShard`: plus a private result-cache slice, for
  ``perf/trace.py``);
* :class:`StripedCache` — a lock-striped LRU used for the parse and
  coverage-decision caches, so hot single-table traffic on different
  fingerprints does not serialise on one mutex.

Deadlock freedom: shard locks are only ever taken in **canonical table
order** (sorted by table name; see :func:`order_shards`), maintenance
takes exactly one shard write lock, and the cache mutexes (a stripe's,
the result cache's) are leaves — held only for dictionary operations,
never while acquiring a shard or schema lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Hashable, Iterable, Optional, Sequence

from repro.serving.cache import CacheStats, Doorkeeper, LRUCache


# --------------------------------------------------------------------------- #
# the instrumented reader/writer lock
# --------------------------------------------------------------------------- #
@dataclass
class LockStats:
    """Contention counters for one :class:`ShardLock`."""

    name: str
    read_acquisitions: int = 0
    write_acquisitions: int = 0
    read_wait_seconds: float = 0.0
    write_wait_seconds: float = 0.0
    contended_acquisitions: int = 0  # acquisitions that had to block

    @property
    def wait_seconds(self) -> float:
        return self.read_wait_seconds + self.write_wait_seconds

    def describe(self) -> str:
        return (
            f"lock {self.name}: {self.read_acquisitions} reads / "
            f"{self.write_acquisitions} writes, "
            f"{self.contended_acquisitions} contended, "
            f"waited {self.wait_seconds * 1000:.2f} ms"
        )


class ShardLock:
    """A reader/writer lock with wait-time instrumentation.

    Multiple readers may hold the lock concurrently; writers are
    exclusive. Waiting writers block new readers (writer preference) so
    a steady read stream cannot starve maintenance. Not reentrant: a
    thread must not re-acquire a lock it already holds, which the
    serving layer guarantees by acquiring each shard at most once per
    request, in canonical order.
    """

    def __init__(self, name: str):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: Optional[int] = None
        self._waiting_writers = 0
        self.stats = LockStats(name)

    # ------------------------------------------------------------------ #
    def acquire_read(self) -> float:
        """Block until a read hold is granted; returns seconds waited."""
        waited = 0.0
        with self._cond:
            if self._writer is not None or self._waiting_writers:
                self.stats.contended_acquisitions += 1
                start = time.perf_counter()
                while self._writer is not None or self._waiting_writers:
                    self._cond.wait()
                waited = time.perf_counter() - start
                self.stats.read_wait_seconds += waited
            self._readers += 1
            self.stats.read_acquisitions += 1
        return waited

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> float:
        """Block until the exclusive hold is granted; returns seconds waited."""
        waited = 0.0
        with self._cond:
            self._waiting_writers += 1
            if self._readers or self._writer is not None:
                self.stats.contended_acquisitions += 1
                start = time.perf_counter()
                while self._readers or self._writer is not None:
                    self._cond.wait()
                waited = time.perf_counter() - start
                self.stats.write_wait_seconds += waited
            self._waiting_writers -= 1
            self._writer = threading.get_ident()
            self.stats.write_acquisitions += 1
        return waited

    def release_write(self) -> None:
        with self._cond:
            self._writer = None
            self._cond.notify_all()

    # ------------------------------------------------------------------ #
    class _ReadHold:
        def __init__(self, lock: "ShardLock"):
            self._lock = lock

        def __enter__(self):
            self._lock.acquire_read()
            return self._lock

        def __exit__(self, *exc):
            self._lock.release_read()
            return False

    class _WriteHold:
        def __init__(self, lock: "ShardLock"):
            self._lock = lock

        def __enter__(self):
            self._lock.acquire_write()
            return self._lock

        def __exit__(self, *exc):
            self._lock.release_write()
            return False

    def read(self) -> "ShardLock._ReadHold":
        return ShardLock._ReadHold(self)

    def write(self) -> "ShardLock._WriteHold":
        return ShardLock._WriteHold(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ShardLock({self.stats.name}, readers={self._readers})"


# --------------------------------------------------------------------------- #
# one table's shard
# --------------------------------------------------------------------------- #
@dataclass
class ShardStats:
    """A point-in-time snapshot of one shard (``ServingStats.shards``)."""

    table: str
    version: int
    lock: LockStats
    maintenance_batches: int

    def describe(self) -> str:
        return (
            f"shard {self.table}: v{self.version}, "
            f"{self.maintenance_batches} maintenance batches; "
            f"reads {self.lock.read_acquisitions} / writes "
            f"{self.lock.write_acquisitions}, "
            f"{self.lock.contended_acquisitions} contended, "
            f"waited {self.lock.wait_seconds * 1000:.2f} ms"
        )


class Shard:
    """One table's concurrency unit inside :class:`BEASServer`: the
    reader/writer lock serialising access to the table's rows and access
    indices, and its maintenance counter. (Cached answers live in the
    server's one :class:`~repro.serving.cache.ResultCache`.)"""

    def __init__(self, table: str):
        self.table = table
        self.lock = ShardLock(table)
        self._mutex = threading.Lock()  # leaf: guards everything below
        self.maintenance_batches = 0

    def note_maintenance(self) -> None:
        with self._mutex:
            self.maintenance_batches += 1

    def snapshot(self, version: int) -> ShardStats:
        """The counters, beside the table's live ``version``."""
        with self._mutex:
            return ShardStats(
                table=self.table,
                version=version,
                lock=replace(self.lock.stats),
                maintenance_batches=self.maintenance_batches,
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.table})"


class TableShard(Shard):
    """A shard with a result-cache slice of its own, second-hit
    doorkeeper included: what the benchmark's shadow of the serving path
    (``perf/trace.py``) is built from. Nothing in ``src/`` uses it."""

    def __init__(
        self,
        table: str,
        *,
        result_entries: int,
        result_bytes: Optional[int],
        sizeof: Optional[Callable[[Any], int]] = None,
    ):
        super().__init__(table)
        self.results = LRUCache(
            f"result[{table}]",
            max_entries=result_entries,
            max_bytes=result_bytes,
            sizeof=sizeof,
        )
        self._doorkeeper = Doorkeeper(4 * result_entries)

    def lookup(self, key: Hashable) -> Any:
        with self._mutex:
            return self.results.get(key)

    def admit(self, key: Hashable, entry: Any) -> bool:
        """Insert ``entry`` subject to admit-on-second-hit."""
        with self._mutex:
            return self._doorkeeper.knows(key) and self.results.put(key, entry)

    def invalidate_where(
        self, predicate: Callable[[Hashable, Any], bool]
    ) -> int:
        with self._mutex:
            return self.results.invalidate_where(predicate)


def order_shards(shards: Iterable[Shard]) -> list[Shard]:
    """Deduplicate + sort shards into the canonical (deadlock-free)
    acquisition order: ascending table name."""
    unique: dict[str, Shard] = {}
    for shard in shards:
        unique[shard.table] = shard
    return [unique[name] for name in sorted(unique)]


def acquire_read_ordered(shards: Sequence[Shard]) -> float:
    """Take read holds on ``shards`` (already canonically ordered);
    returns the total seconds spent waiting."""
    waited = 0.0
    for shard in shards:
        waited += shard.lock.acquire_read()
    return waited


def release_read_ordered(shards: Sequence[Shard]) -> None:
    for shard in reversed(shards):
        shard.lock.release_read()


# --------------------------------------------------------------------------- #
# the striped cache (parse + decision caches)
# --------------------------------------------------------------------------- #
class StripedCache:
    """An LRU cache split across N independently locked stripes.

    Keys are distributed by hash, so concurrent lookups of different
    fingerprints proceed in parallel; a stripe's mutex is only held for
    the dictionary operation itself. ``stripes=1`` degrades to a single
    mutexed LRU (the unsharded baseline).
    """

    def __init__(self, name: str, *, max_entries: int, stripes: int = 8):
        if stripes < 1:
            raise ValueError("stripes must be >= 1")
        self.name = name
        per_stripe = max(1, max_entries // stripes)
        self._stripes: list[tuple[threading.Lock, LRUCache]] = [
            (
                threading.Lock(),
                LRUCache(f"{name}[{i}]", max_entries=per_stripe),
            )
            for i in range(stripes)
        ]

    def _stripe(self, key: Hashable) -> tuple[threading.Lock, LRUCache]:
        return self._stripes[hash(key) % len(self._stripes)]

    def get(self, key: Hashable, default: Any = None) -> Any:
        mutex, cache = self._stripe(key)
        with mutex:
            return cache.get(key, default)

    def put(self, key: Hashable, value: Any) -> bool:
        mutex, cache = self._stripe(key)
        with mutex:
            return cache.put(key, value)

    def invalidate_all(self) -> int:
        count = 0
        for mutex, cache in self._stripes:
            with mutex:
                count += cache.invalidate_all()
        return count

    def __len__(self) -> int:
        return sum(len(cache) for _, cache in self._stripes)

    def stats(self) -> CacheStats:
        """Counters aggregated across stripes, under the cache's name."""
        merged = CacheStats(self.name)
        for mutex, cache in self._stripes:
            with mutex:
                merged.hits += cache.stats.hits
                merged.misses += cache.stats.misses
                merged.evictions += cache.stats.evictions
                merged.invalidations += cache.stats.invalidations
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StripedCache({self.name}, stripes={len(self._stripes)})"
