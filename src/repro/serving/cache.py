"""Cache primitives for the serving layer.

One :class:`LRUCache` implementation backs all three serving caches
(parse, coverage-decision, result). Entries carry an approximate byte
size so the result cache can enforce a byte budget on top of the entry
budget; the cheaper caches pass ``sizeof=None`` and pay only the entry
budget. Every cache keeps a :class:`CacheStats` counter block that the
server surfaces through ``BEASServer.stats()`` and the CLI.

:class:`LRUCache` itself is not thread-safe: its owner serialises access
(a stripe's mutex, a shard's, :class:`ResultCache`'s own).

:class:`ResultCache` is the served-answer cache (``docs/invariants.md``,
"Result-cache validity").
"""

from __future__ import annotations

import logging
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Hashable, Iterable, Mapping, Optional

logger = logging.getLogger(__name__)
_SWEPT = "result cache: swept %s (%s), %d entries dropped"


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    name: str
    hits: int = 0
    misses: int = 0
    evictions: int = 0  # capacity-driven removals (LRU order / byte budget)
    invalidations: int = 0  # staleness-driven removals (generation bumps)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        return (
            f"{self.name}: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.1%}), {self.evictions} evictions, "
            f"{self.invalidations} invalidations"
        )


@dataclass
class _Entry:
    value: Any
    size: int


def approx_size(value: Any, _depth: int = 0) -> int:
    """Cheap recursive estimate of the in-memory footprint in bytes.

    Exact accounting is not the goal — the result cache only needs a
    stable, monotone measure to enforce its byte budget.
    """
    if _depth > 6:
        return 64
    if value is None or isinstance(value, bool):
        return 16
    if isinstance(value, (int, float)):
        return 28
    if isinstance(value, str):
        return 49 + len(value)
    if isinstance(value, bytes):
        return 33 + len(value)
    if isinstance(value, (tuple, list, set, frozenset)):
        return 56 + 8 * len(value) + sum(
            approx_size(item, _depth + 1) for item in value
        )
    if isinstance(value, dict):
        return 64 + sum(
            approx_size(k, _depth + 1) + approx_size(v, _depth + 1)
            for k, v in value.items()
        )
    return 128  # opaque object: flat charge


class LRUCache:
    """An LRU map with entry- and byte-budgets and counters.

    ``max_bytes=None`` disables byte accounting (``sizeof`` is then never
    called). A single value larger than ``max_bytes`` is refused rather
    than evicting the whole cache to make room.
    """

    def __init__(
        self,
        name: str,
        *,
        max_entries: int = 256,
        max_bytes: Optional[int] = None,
        sizeof: Optional[Callable[[Any], int]] = None,
        on_remove: Optional[Callable[[Hashable, Any], None]] = None,
    ):
        """``on_remove(key, value)`` is told of every entry that leaves:
        replaced, evicted or invalidated."""
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.stats = CacheStats(name)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._sizeof = sizeof or (lambda value: 0)
        self._on_remove = on_remove
        self._entries: OrderedDict[Hashable, _Entry] = OrderedDict()
        self._bytes = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    @property
    def current_bytes(self) -> int:
        return self._bytes

    def keys(self) -> list[Hashable]:
        return list(self._entries.keys())

    # ------------------------------------------------------------------ #
    def get(self, key: Hashable, default: Any = None) -> Any:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return default
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry.value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Read a value without touching recency order or counters.

        The subsumption prober uses this to inspect candidate entries:
        a probe is speculative, so it must neither promote a candidate
        in LRU order nor distort the hit/miss accounting the exact
        lookup path reports.
        """
        entry = self._entries.get(key)
        return default if entry is None else entry.value

    def put(self, key: Hashable, value: Any) -> bool:
        """Insert/replace; returns False when the value exceeds the budget."""
        size = self._sizeof(value) if self.max_bytes is not None else 0
        if self.max_bytes is not None and size > self.max_bytes:
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self._removed(key, old)
        self._entries[key] = _Entry(value, size)
        self._bytes += size
        while len(self._entries) > self.max_entries or (
            self.max_bytes is not None and self._bytes > self.max_bytes
        ):
            self._removed(*self._entries.popitem(last=False))
            self.stats.evictions += 1
        return True

    def _removed(self, key: Hashable, entry: _Entry) -> None:
        self._bytes -= entry.size
        if self._on_remove is not None:
            self._on_remove(key, entry.value)

    # ------------------------------------------------------------------ #
    def invalidate(self, key: Hashable) -> bool:
        """Drop one key as stale (counted as an invalidation, not eviction)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._removed(key, entry)
        self.stats.invalidations += 1
        return True

    def invalidate_where(self, predicate: Callable[[Hashable, Any], bool]) -> int:
        """Drop every entry for which ``predicate(key, value)`` holds."""
        stale = [
            key
            for key, entry in self._entries.items()
            if predicate(key, entry.value)
        ]
        for key in stale:
            self._removed(key, self._entries.pop(key))
        self.stats.invalidations += len(stale)
        return len(stale)

    def invalidate_all(self) -> int:
        count = len(self._entries)
        while self._entries:
            self._removed(*self._entries.popitem())
        self.stats.invalidations += count
        return count

    def items(self) -> Iterable[tuple[Hashable, Any]]:
        return [(key, entry.value) for key, entry in self._entries.items()]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LRUCache({self.stats.name}, entries={len(self)}, "
            f"bytes={self._bytes})"
        )


class Doorkeeper:
    """Admit-on-second-hit: the last ``capacity`` keys seen, so that a
    one-off query never churns the LRU."""

    def __init__(self, capacity: int):
        self._capacity = capacity
        self._seen: OrderedDict[Hashable, bool] = OrderedDict()

    def knows(self, key: Hashable) -> bool:
        """Whether ``key`` was seen before; it is remembered either way."""
        seen = self._seen
        if key in seen:
            seen.move_to_end(key)
            return True
        seen[key] = True
        while len(seen) > self._capacity:
            seen.popitem(last=False)
        return False

    def clear(self) -> None:
        self._seen.clear()


class ResultCache:
    """Every served answer, under one budget, kept until a write changes
    what it read: one LRU, the doorkeeper and the filing of each entry
    under its ``tables``, ``coarse_tables`` and ``read_keys``, through
    which it is unfiled whenever it leaves the LRU.

    What is dropped when, the sweep epochs, and the locking callers owe
    (reads under read holds on the tables concerned, writes under the
    table's write hold; the mutex here is a leaf) are
    ``docs/invariants.md``, "Result-cache validity".
    """

    #: doorkeeper capacity, as a multiple of the entry budget
    _DOORKEEPER_FACTOR = 4

    def __init__(
        self,
        *,
        max_entries: int,
        max_bytes: Optional[int],
        sizeof: Optional[Callable[[Any], int]] = None,
        admit_on_second_hit: bool = True,
    ):
        self._mutex = threading.Lock()
        self._lru = LRUCache(
            "result",
            max_entries=max_entries,
            max_bytes=max_bytes,
            sizeof=sizeof,
            on_remove=self._unfile,
        )
        self._doorkeeper = (
            Doorkeeper(self._DOORKEEPER_FACTOR * max_entries)
            if admit_on_second_hit
            else None
        )
        self._by_key: dict[tuple[str, tuple], set[Hashable]] = {}
        self._coarse: dict[str, set[Hashable]] = {}
        self._by_table: dict[str, set[Hashable]] = {}
        #: table -> the ``Table.version`` its entries are valid at
        self._versions: dict[str, int] = {}
        #: table -> how many times it was swept
        self._epochs: dict[str, int] = {}
        self._filed = 0  # the live entries' read-set sizes, summed
        self._admission_declines = 0
        self._dropped: Counter[str] = Counter()

    # ------------------------------------------------------------------ #
    def observe(self, versions: Mapping[str, int]) -> tuple[int, ...]:
        """Sweep each table whose live version is not the one the cache
        knew (it moved around the serving layer); returns the tables'
        epochs, in ``versions``' order."""
        swept: list[tuple[str, int]] = []
        with self._mutex:
            known = self._versions
            for table, version in versions.items():
                if known.setdefault(table, version) != version:
                    known[table] = version
                    swept.append((table, self._sweep(table)))
            epochs = tuple([self._epochs.get(table, 0) for table in versions])
        for table, dropped in swept:
            logger.debug(_SWEPT, table, "out-of-band change", dropped)
        return epochs

    def lookup(self, key: Hashable) -> Any:
        with self._mutex:
            return self._lru.get(key)

    def peek(self, key: Hashable) -> Any:
        """No recency promotion, no hit/miss counts."""
        with self._mutex:
            return self._lru.peek(key)

    def admits(self, key: Hashable) -> bool:
        """The admission policy's word, asked before the entry is built."""
        with self._mutex:
            door = self._doorkeeper
            if door is None or door.knows(key):
                return True
            self._admission_declines += 1
            return False

    def install(self, key: Hashable, entry: Any) -> bool:
        """File ``entry``, no admission question asked; False when it is
        larger than the byte budget. The doorkeeper learns the key, so a
        re-admission after an invalidation takes one sighting."""
        with self._mutex:
            if self._doorkeeper is not None:
                self._doorkeeper.knows(key)
            if not self._lru.put(key, entry):
                return False
            for filing, names in self._filings(entry):
                for name in names:
                    filing.setdefault(name, set()).add(key)
            self._filed += len(entry.read_keys)
            return True

    def _filings(self, entry: Any) -> tuple[tuple[dict, Iterable], ...]:
        return (
            (self._by_table, entry.tables),
            (self._coarse, entry.coarse_tables),
            (self._by_key, entry.read_keys),
        )

    def _unfile(self, key: Hashable, entry: Any) -> None:
        self._filed -= len(entry.read_keys)
        for filing, names in self._filings(entry):
            for name in names:
                filed = filing[name]
                filed.discard(key)
                if not filed:
                    del filing[name]

    # ------------------------------------------------------------------ #
    def apply_write(
        self,
        table: str,
        before: int,
        version: int,
        changed: Mapping[str, Iterable[tuple]],
    ) -> None:
        """A batch applied cleanly to ``table`` (at ``before``, now at
        ``version``) changed the buckets ``changed`` names per
        constraint: drop what read them, and what is filed coarse. A
        table the cache knew at another version than ``before`` is swept."""
        with self._mutex:
            moved = self._versions.get(table, before) != before
            self._versions[table] = version
            if moved:
                dropped = self._sweep(table)
            else:
                dropped = self._drop(self._coarse.get(table), "coarse")
                by_key = self._by_key
                if by_key:
                    for name, keys in changed.items():
                        for key in keys:
                            self._drop(by_key.get((name, key)), "exact")
        if moved:
            logger.debug(_SWEPT, table, "out-of-band change", dropped)
        elif dropped:
            logger.debug(
                "result cache: write to %s dropped %d entries filed coarse",
                table, dropped,
            )  # fmt: skip

    def sweep(self, table: str, version: int, reason: str) -> None:
        """Drop every entry that depends on ``table`` (now at ``version``)."""
        with self._mutex:
            self._versions[table] = version
            dropped = self._sweep(table)
        logger.debug(_SWEPT, table, reason, dropped)

    def _sweep(self, table: str) -> int:
        self._epochs[table] = self._epochs.get(table, 0) + 1
        return self._drop(self._by_table.get(table), "sweep")

    def _drop(self, keys: Optional[set[Hashable]], cause: str) -> int:
        if not keys:
            return 0
        dropped = 0
        for key in tuple(keys):  # invalidate() unfiles as it goes
            dropped += self._lru.invalidate(key)
        self._dropped[cause] += dropped
        return dropped

    def invalidate(self, key: Hashable) -> bool:
        """Drop one entry a hit found outdated despite the sweeps."""
        with self._mutex:
            return bool(self._drop({key}, "sweep"))

    def flush(self, reason: str) -> None:
        """Drop everything, the doorkeeper's memory included."""
        with self._mutex:
            if self._doorkeeper is not None:
                self._doorkeeper.clear()
            dropped = self._lru.invalidate_all()
            self._dropped["sweep"] += dropped
        logger.debug(_SWEPT, "every table", reason, dropped)

    # ------------------------------------------------------------------ #
    def entries(self) -> list[tuple[Hashable, Any]]:
        with self._mutex:
            return self._lru.items()

    def __len__(self) -> int:
        return len(self._lru)

    def snapshot(self) -> tuple[CacheStats, dict[str, int]]:
        """The LRU's counters and, read with them, the cache's own, by
        the name of the ``ServingStats`` field each one fills."""
        with self._mutex:
            dropped = self._dropped
            return replace(self._lru.stats), {
                "result_entries": len(self._lru),
                "result_bytes": self._lru.current_bytes,
                "result_read_keys": self._filed,
                "admission_declines": self._admission_declines,
                "invalidated_exact": dropped["exact"],
                "invalidated_coarse": dropped["coarse"],
                "invalidated_sweep": dropped["sweep"],
            }
