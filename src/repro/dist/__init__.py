"""Sharded shared-cache service — the fault-tolerant tier.

Partitions the two-layer :class:`~repro.core.semantic_cache.SemanticCache`
across N :class:`~repro.dist.server.CacheShardServer` partitions behind a
simulated RPC channel, fronted by a
:class:`~repro.dist.client.ShardedCacheClient` that every data-parallel
worker shares. The client *is* a ``SemanticCache`` — same layers, same
``fetch`` — built over a store that keeps the payloads on the shards, so
the *logical* cache state (importance heap, homophily FIFO + neighbor
cover map, capacity split) stays local, which is what makes the service

* **bit-identical** to the monolithic cache for any shard count when no
  faults fire (by construction; the Hypothesis differential oracle in
  ``tests/dist`` guards placement independence), and
* **gracefully degraded** when shards do fail: lookups become misses,
  while every admit and eviction is still decided as the monolith
  decides it — its write waits in the shard's write queue, served from
  there, until a frame lands it — so the global capacity/eviction/FIFO
  invariants are never corrupted, and once the faults end and the
  queues drain every shard holds exactly what the metadata owns.

Modules:

* :mod:`~repro.dist.ring` — splitmix64 consistent-hash ring (virtual
  nodes, fixed size);
* :mod:`~repro.dist.rpc` — the :class:`Transport` interface and the
  simulated :class:`SimRpcChannel` with per-call deadlines, fault-plan
  outage/brownout injection, and timeout-vs-outage error classification;
* :mod:`~repro.dist.transport` — :class:`RealRpcTransport`, the
  real-process backend running shard servers in worker processes
  behind a length-prefixed ``multiprocessing.connection`` protocol;
* :mod:`~repro.dist.retry` — seeded-jitter capped exponential backoff
  with a per-request retry budget;
* :mod:`~repro.dist.server` — idempotent shard partition servers
  (reads, and ``(layer, key, payload)`` writes);
* :mod:`~repro.dist.client` — the breaker-guarded coordinating client.
"""
