"""Approximate-nearest-neighbor substrate.

SpiderCache's graph-based importance sampling (paper §4.1) relies on HNSW
for fast neighbor search over sample embeddings, with Product Quantization
to bound index memory (paper §5, Table 2). This package implements both from
scratch plus an exact brute-force oracle used for recall validation.
"""

from repro.ann.brute import BruteForceIndex
from repro.ann.distance import (
    l2_distance_matrix,
    l2_distances,
    pairwise_l2,
)
from repro.ann.hnsw import HNSWIndex
from repro.ann.index_stats import IndexStorageModel
from repro.ann.pq import ProductQuantizer
from repro.ann.range_result import RangeResult

__all__ = [
    "BruteForceIndex",
    "HNSWIndex",
    "RangeResult",
    "ProductQuantizer",
    "IndexStorageModel",
    "l2_distances",
    "l2_distance_matrix",
    "pairwise_l2",
]
