"""The cache-layer protocol + classic eviction policies.

Every layer a :class:`~repro.core.semantic_cache.SemanticCache` stacks
is a :class:`~repro.cache.base.Cache`. LRU/LFU are the Fig. 3(b) baselines the
paper shows failing under random sampling; MinIO is CoorDL's never-evict
cache; random replacement is iCache's L-section.
"""
