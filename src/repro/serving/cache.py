"""Cache primitives for the serving layer.

:class:`LRUCache` backs the parse and coverage-decision caches (and
``TableShard``'s slice). Entries carry an approximate byte size so a
cache can enforce a byte budget on top of the entry budget; the cheaper
caches pass ``sizeof=None`` and pay only the entry budget. Every cache
keeps a :class:`CacheStats` counter block that the server surfaces
through ``BEASServer.stats()`` and the CLI.

:class:`LRUCache` itself is not thread-safe: its owner serialises access
(a stripe's mutex, a shard's).

:class:`ResultCache` is the served-answer cache (``docs/invariants.md``,
"Result-cache validity"), under the same two budgets but retained by
cost (GreedyDual, Cao & Irani 1997): what goes first is the answer
cheapest to recompute.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Hashable, Iterable, Mapping, Optional

logger = logging.getLogger(__name__)
_SWEPT = "result cache: swept %s (%s), %d entries dropped"


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache."""

    name: str
    hits: int = 0
    misses: int = 0
    evictions: int = 0  # capacity-driven removals (entry / byte budget)
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
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.stats = CacheStats(name)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._sizeof = sizeof or (lambda value: 0)
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
        """Read a value without touching recency order or counters."""
        entry = self._entries.get(key)
        return default if entry is None else entry.value

    def put(self, key: Hashable, value: Any) -> bool:
        """Insert/replace; returns False when the value exceeds the budget."""
        size = self._sizeof(value) if self.max_bytes is not None else 0
        if self.max_bytes is not None and size > self.max_bytes:
            return False
        old = self._entries.pop(key, None)
        if old is not None:
            self._bytes -= old.size
        self._entries[key] = _Entry(value, size)
        self._bytes += size
        while len(self._entries) > self.max_entries or (
            self.max_bytes is not None and self._bytes > self.max_bytes
        ):
            self._bytes -= self._entries.popitem(last=False)[1].size
            self.stats.evictions += 1
        return True

    # ------------------------------------------------------------------ #
    def invalidate(self, key: Hashable) -> bool:
        """Drop one key as stale (counted as an invalidation, not eviction)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._bytes -= entry.size
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
            self._bytes -= self._entries.pop(key).size
        self.stats.invalidations += len(stale)
        return len(stale)

    def invalidate_all(self) -> int:
        count = len(self._entries)
        self._entries.clear()
        self._bytes = 0
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
    one-off query never churns the cache."""

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


class _Slot:
    """A live result entry and its retention state: ``priority`` is
    ``clock + cost`` as of its last touch (``tick``); ``filed`` is the
    tick of its one live heap record."""

    __slots__ = ("entry", "size", "cost", "priority", "tick", "filed")

    def __init__(self, entry: Any, size: int, cost: float, priority: float, tick: int):
        self.entry, self.size, self.cost = entry, size, cost
        self.priority, self.tick, self.filed = priority, tick, tick


class ResultCache:
    """Every served answer, under one budget, kept until a write changes
    what it read or retention evicts it: the doorkeeper, the GreedyDual
    order, and the filing of each entry under its ``tables``,
    ``coarse_tables`` and ``read_keys``, through which it is unfiled
    whenever it leaves.

    An entry's ``cost`` is what re-running it would take; a hit
    re-prices it at ``clock + cost``. The heap is
    re-keyed lazily, when a stale record reaches its top, so a hit
    stays O(1). Retention, what is dropped when, the sweep epochs, and
    the locking callers owe (reads under read holds on the tables
    concerned, writes under the table's write hold; the mutex here is a
    leaf) are ``docs/invariants.md``, "Result-cache validity".
    """

    #: doorkeeper capacity, as a multiple of the entry budget
    _DOORKEEPER_FACTOR = 4
    #: dead heap records allowed beyond one per live entry before a rebuild
    _HEAP_SLACK = 64

    def __init__(
        self,
        *,
        max_entries: int,
        max_bytes: Optional[int],
        sizeof: Optional[Callable[[Any], int]] = None,
        admit_on_second_hit: bool = True,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self._mutex = threading.Lock()
        self.stats = CacheStats("result")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._sizeof = sizeof or (lambda value: 0)
        self._slots: dict[Hashable, _Slot] = {}
        #: (priority, tick, key): one live record per slot (the one whose
        #: tick is its ``filed``), and the dead ones left behind
        self._heap: list[tuple[float, int, Hashable]] = []
        self._ticks = itertools.count()
        self._clock = 0.0
        self._bytes = 0
        self._saved = 0.0  # the costs of the entries hits were served from
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
            slot = self._slots.get(key)
            if slot is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            self._saved += slot.cost
            slot.priority = self._clock + slot.cost
            slot.tick = next(self._ticks)
            return slot.entry

    def peek(self, key: Hashable) -> Any:
        """No re-pricing, no hit/miss counts."""
        with self._mutex:
            slot = self._slots.get(key)
            return None if slot is None else slot.entry

    def admits(self, key: Hashable) -> bool:
        """The admission policy's word, asked before the entry is built."""
        with self._mutex:
            door = self._doorkeeper
            if door is None or door.knows(key):
                return True
            self._admission_declines += 1
            return False

    def install(self, key: Hashable, entry: Any) -> bool:
        """File ``entry``, no admission question asked, evicting the
        lowest priorities to make room; False when it is larger than the
        byte budget, or when its own priority would be the lowest (a
        decline: the clock still moves to it). The doorkeeper learns the
        key, so a re-admission after an invalidation takes one sighting."""
        with self._mutex:
            if self._doorkeeper is not None:
                self._doorkeeper.knows(key)
            max_bytes = self.max_bytes
            size = self._sizeof(entry) if max_bytes is not None else 0
            if max_bytes is not None and size > max_bytes:
                return False
            old = self._slots.pop(key, None)
            if old is not None:
                self._remove(key, old)
            cost = entry.cost
            priority = self._clock + cost
            slots, heap = self._slots, self._heap
            while len(slots) >= self.max_entries or (
                max_bytes is not None and self._bytes + size > max_bytes
            ):
                victim = self._lowest()
                lowest = slots[victim].priority
                if priority < lowest:  # on a tie, the older entry goes
                    self._clock = priority
                    self._admission_declines += 1
                    return False
                heapq.heappop(heap)
                self._clock = lowest
                self._remove(victim, slots.pop(victim))
                self.stats.evictions += 1
            tick = next(self._ticks)
            slots[key] = _Slot(entry, size, cost, priority, tick)
            heapq.heappush(heap, (priority, tick, key))
            self._bytes += size
            for filing, names in self._filings(entry):
                for name in names:
                    filing.setdefault(name, set()).add(key)
            self._filed += len(entry.read_keys)
            return True

    def _lowest(self) -> Hashable:
        """The key of the live entry with the lowest (priority, tick),
        its record left on top of the heap: dead records on the way are
        popped, records a hit outdated are re-pushed at the hit's price."""
        heap, slots = self._heap, self._slots
        while True:
            _, tick, key = heap[0]
            slot = slots.get(key)
            if slot is None or slot.filed != tick:
                heapq.heappop(heap)
            elif slot.tick != tick:
                slot.filed = slot.tick
                heapq.heapreplace(heap, (slot.priority, slot.tick, key))
            else:
                return key

    def _remove(self, key: Hashable, slot: _Slot) -> None:
        """Unfile an entry that left ``_slots`` (its heap record dies in
        place; the heap is rebuilt when dead records pile up)."""
        entry = slot.entry
        self._bytes -= slot.size
        self._filed -= len(entry.read_keys)
        for filing, names in self._filings(entry):
            for name in names:
                filed = filing[name]
                filed.discard(key)
                if not filed:
                    del filing[name]
        slots, heap = self._slots, self._heap
        if len(heap) > 2 * len(slots) + self._HEAP_SLACK:
            heap[:] = [(s.priority, s.tick, k) for k, s in slots.items()]
            heapq.heapify(heap)
            for s in slots.values():
                s.filed = s.tick

    def _filings(self, entry: Any) -> tuple[tuple[dict, Iterable], ...]:
        return (
            (self._by_table, entry.tables),
            (self._coarse, entry.coarse_tables),
            (self._by_key, entry.read_keys),
        )

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
        slots = self._slots
        for key in tuple(keys):  # _remove() unfiles as it goes
            slot = slots.pop(key, None)
            if slot is not None:
                self._remove(key, slot)
                dropped += 1
        self.stats.invalidations += dropped
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
            dropped = len(self._slots)
            self._slots.clear()
            self._heap.clear()
            for filing in (self._by_key, self._coarse, self._by_table):
                filing.clear()
            self._bytes = self._filed = 0
            self.stats.invalidations += dropped
            self._dropped["sweep"] += dropped
        logger.debug(_SWEPT, "every table", reason, dropped)

    # ------------------------------------------------------------------ #
    def entries(self) -> list[tuple[Hashable, Any]]:
        with self._mutex:
            return [(key, slot.entry) for key, slot in self._slots.items()]

    def __len__(self) -> int:
        return len(self._slots)

    def snapshot(self) -> tuple[CacheStats, dict[str, Any]]:
        """The hit/miss/eviction counters and, read with them, the
        cache's own, by the name of the ``ServingStats`` field each one
        fills."""
        with self._mutex:
            dropped = self._dropped
            return replace(self.stats), {
                "result_entries": len(self._slots),
                "result_bytes": self._bytes,
                "result_read_keys": self._filed,
                "result_saved_s": self._saved,
                "admission_declines": self._admission_declines,
                "invalidated_exact": dropped["exact"],
                "invalidated_coarse": dropped["coarse"],
                "invalidated_sweep": dropped["sweep"],
            }
