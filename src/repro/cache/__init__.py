"""The cache-layer protocol + classic eviction policies.

Every layer a :class:`~repro.core.semantic_cache.SemanticCache` stacks
is a :class:`Cache`. LRU/LFU are the Fig. 3(b) baselines the
paper shows failing under random sampling; MinIO is CoorDL's never-evict
cache; random replacement is iCache's L-section.
"""

from repro.cache.base import Cache, CacheStats, FetchSource
from repro.cache.lfu import LFUCache
from repro.cache.lru import LRUCache
from repro.cache.minio import MinIOCache
from repro.cache.random_replacement import RandomReplacementCache
from repro.cache.trace import AccessTrace, belady_hit_ratio, record_trace, replay

__all__ = [
    "Cache",
    "CacheStats",
    "FetchSource",
    "LRUCache",
    "LFUCache",
    "MinIOCache",
    "RandomReplacementCache",
    "AccessTrace",
    "record_trace",
    "replay",
    "belady_hit_ratio",
]
