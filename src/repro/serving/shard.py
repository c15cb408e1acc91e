"""Sharding primitives for the concurrent serving layer.

The serving layer partitions its state by table so that maintenance on
one relation never blocks reads of another:

* :class:`ShardLock` — an instrumented reader/writer lock (writer
  preference, lock-wait accounting) guarding one shard's table data and
  its access indices, and :func:`grant` / :func:`release`, which take
  and give back holds on several such locks at once;
* :class:`Shard` — one table's lock and maintenance counter
  (:class:`TableShard`: plus a private result-cache slice, for
  ``perf/trace.py``);
* :class:`StripedCache` — a lock-striped LRU used for the parse and
  coverage-decision caches, so hot single-table traffic on different
  fingerprints does not serialise on one mutex.

Deadlock freedom: every hold a request or a batch needs (the schema
lock's and its tables') is taken in one :func:`grant`, all at once or
not at all, and a grant that must wait holds nothing while it waits —
so no lock order exists to get wrong. The cache mutexes (a stripe's,
the result cache's) are leaves: held only for dictionary operations,
never while taking a grant.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Hashable, Iterator, Optional, Sequence

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
    a steady read stream cannot starve maintenance. Not reentrant.

    Every lock of one engine shares one condition, ``cond``, so that
    :func:`grant` can take holds on several of them in one critical
    section; a lock made without one builds its own.
    """

    def __init__(self, name: str, cond: Optional[threading.Condition] = None):
        self._cond = cond or threading.Condition(threading.Lock())
        self._readers = 0
        self._writer: Optional[int] = None
        self._waiting_writers = 0
        self.stats = LockStats(name)

    # ------------------------------------------------------------------ #
    def acquire_read(self) -> float:
        """Block until a read hold is granted; returns seconds waited."""
        return grant((self,))

    def release_read(self) -> None:
        release((self,))

    def acquire_write(self) -> float:
        """Block until the exclusive hold is granted; returns seconds waited."""
        return grant((), self)

    def release_write(self) -> None:
        release((), self)

    @contextmanager
    def read(self) -> Iterator["ShardLock"]:
        grant((self,))
        try:
            yield self
        finally:
            release((self,))

    @contextmanager
    def write(self) -> Iterator["ShardLock"]:
        grant((), self)
        try:
            yield self
        finally:
            release((), self)

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
    """One table's concurrency unit inside a
    :class:`~repro.beas.system.BEAS` engine: the reader/writer lock
    serialising access to the table's rows and access indices, and its
    maintenance counter. (Cached answers live in the engine's one
    :class:`~repro.serving.cache.ResultCache`.)"""

    def __init__(self, table: str, cond: Optional[threading.Condition] = None):
        self.table = table
        self.lock = ShardLock(table, cond)
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


def grant(reads: Sequence[ShardLock], write: Optional[ShardLock] = None) -> float:
    """Read holds on every lock in ``reads`` and, given ``write``, the
    exclusive hold on it (the locks share one condition): all granted in
    one critical section, or none. While any is unavailable the caller
    waits holding nothing and re-checks the whole set on each wake, so
    no acquisition order is needed; each interval waited is charged to
    a lock that blocked it. Returns the seconds waited.

    The section is entered through ``cond.acquire`` / ``cond.release``,
    which are the shared lock's own methods: an uncontended grant pays
    for the lock, not for ``Condition.__enter__``; only a wait goes
    through the condition."""
    cond = (write or reads[0])._cond
    cond.acquire()
    try:
        waited = 0.0
        if _blocker(reads, write) is not None:
            waited = _wait(cond, reads, write)
        for lock in reads:
            lock._readers += 1
            lock.stats.read_acquisitions += 1
        if write is not None:
            write._writer = threading.get_ident()
            write.stats.write_acquisitions += 1
    finally:
        cond.release()
    return waited


def release(reads: Sequence[ShardLock], write: Optional[ShardLock] = None) -> None:
    """Give back what :func:`grant` granted, in one critical section
    (entered as :func:`grant` enters it); waiters are woken only when a
    writer may now proceed."""
    cond = (write or reads[0])._cond
    cond.acquire()
    try:
        wake = write is not None
        if write is not None:
            write._writer = None
        for lock in reads:
            lock._readers -= 1
            if not lock._readers and lock._waiting_writers:
                wake = True
        if wake:
            cond.notify_all()
    finally:
        cond.release()


def _blocker(reads: Sequence[ShardLock], write: Optional[ShardLock]) -> Optional[ShardLock]:
    """A lock of the set that cannot be granted now, if any."""
    if write is not None and (write._readers or write._writer is not None):
        return write
    for lock in reads:
        if lock._writer is not None or lock._waiting_writers:
            return lock
    return None


def _wait(
    cond: threading.Condition, reads: Sequence[ShardLock], write: Optional[ShardLock]
) -> float:
    if write is not None:
        write._waiting_writers += 1  # writer preference: its new readers park
    charged: set[ShardLock] = set()
    waited = 0.0
    try:
        while (blocker := _blocker(reads, write)) is not None:
            if blocker not in charged:
                charged.add(blocker)
                blocker.stats.contended_acquisitions += 1
            start = time.perf_counter()
            cond.wait()
            seconds = time.perf_counter() - start
            waited += seconds
            if blocker is write:
                blocker.stats.write_wait_seconds += seconds
            else:
                blocker.stats.read_wait_seconds += seconds
    finally:
        # on every way out, or the readers parked behind the
        # registration would wait for a writer that never comes
        if write is not None:
            write._waiting_writers -= 1
            cond.notify_all()
    return waited


# --------------------------------------------------------------------------- #
# the striped cache (parse + decision caches)
# --------------------------------------------------------------------------- #
class StripedCache:
    """An LRU cache split across N independently locked stripes.

    Keys are distributed by hash, so concurrent lookups of different
    fingerprints proceed in parallel; a stripe's mutex is only held for
    the dictionary operation itself. ``stripes=1`` degrades to a single
    mutexed LRU.
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
