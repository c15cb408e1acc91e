"""Prepared-query serving (online amortisation of BEAS frontends).

BEAS's promise — answers under a fixed access bound regardless of
``|D|`` — fits repeated analytic workloads, but a bare engine pays
parse + normalize + BE Checker cost on every query. This package holds
the parts with which :class:`~repro.beas.system.BEAS` amortises that
cost behind prepared statements and a multi-level cache hierarchy,
partitioned by table so concurrent traffic scales (the engine holds
the state itself: its caches, shards and prepared registry):

* :class:`~repro.serving.prepared.PreparedQuery` — parse/fingerprint
  once, parameterised constant slots, one cache key per binding;
* :mod:`~repro.serving.request` — the request path: the per-request
  context and the ordered stages every read runs through over the
  engine's per-table locks, its striped decision cache and its one
  result cache (a BOUNDED answer admitted on its second sighting, a
  PARTIAL or CONVENTIONAL one on its first), which a write
  invalidates exactly (it drops the answers whose fetched buckets it
  changed);
* :mod:`~repro.serving.server` — :class:`ServingStats`, what the
  engine's serving state reports, and the cache geometry;
* :class:`~repro.serving.async_server.AsyncBEASServer` — the asyncio
  front end: bounded worker pool, admission control, per-shard
  maintenance queues with batched draining;
* :class:`~repro.serving.shard.Shard` / ``ShardLock`` /
  ``StripedCache`` — the sharding primitives;
* :class:`~repro.serving.cache.LRUCache` / ``CacheStats`` — the shared
  budgeted-LRU primitive and its counters; ``ResultCache`` — the
  served-answer cache, its cost-aware retention and its read-set filing.

It is reached through a :class:`~repro.beas.session.Session`::

    session = Session(database, access_schema)  # sharded, thread-safe
    q = session.query("SELECT ... WHERE call.date = '2016-06-01' ...")
    r1 = q.run()                                # cold: plan pinned
    r2 = q.run()                                # admitted to the cache
    r3 = q.bind({"call.date": "2016-06-02"}).run()  # same template
    print(session.stats().describe())           # incl. per-shard counters

    async with session.serve_async() as aserver:    # asyncio front end
        results = await asyncio.gather(*(aserver.execute(s) for s in sqls))
"""

from repro.serving.async_server import AsyncBEASServer, AsyncServingStats
from repro.serving.cache import CacheStats, LRUCache, ResultCache, approx_size
from repro.serving.params import (
    ParameterSlot,
    extract_slots,
    rebind_signature,
    substitute,
)
from repro.serving.prepared import PreparedBinding, PreparedQuery
from repro.serving.server import ServingStats
from repro.serving.shard import (
    LockStats,
    Shard,
    ShardLock,
    ShardStats,
    StripedCache,
    TableShard,
)

__all__ = [
    "AsyncBEASServer",
    "AsyncServingStats",
    "CacheStats",
    "LockStats",
    "LRUCache",
    "ParameterSlot",
    "PreparedBinding",
    "PreparedQuery",
    "ResultCache",
    "ServingStats",
    "rebind_signature",
    "Shard",
    "ShardLock",
    "ShardStats",
    "StripedCache",
    "TableShard",
    "approx_size",
    "extract_slots",
    "substitute",
]
