"""Generic cache substrate + classic eviction policies.

LRU/LFU are the Fig. 3(b) baselines the paper shows failing under random
sampling; MinIO is CoorDL's never-evict cache; random replacement is
iCache's L-section.
"""

from repro.cache.base import Cache, CacheStats
from repro.cache.lfu import LFUCache
from repro.cache.lru import LRUCache
from repro.cache.minio import MinIOCache
from repro.cache.random_replacement import RandomReplacementCache
from repro.cache.trace import AccessTrace, belady_hit_ratio, record_trace, replay

__all__ = [
    "Cache",
    "CacheStats",
    "LRUCache",
    "LFUCache",
    "MinIOCache",
    "RandomReplacementCache",
    "AccessTrace",
    "record_trace",
    "replay",
    "belady_hit_ratio",
]
