"""Approximate-nearest-neighbor substrate.

SpiderCache's graph-based importance sampling (paper §4.1) relies on HNSW
for fast neighbor search over sample embeddings, with Product Quantization
to bound index memory (paper §5, Table 2). This package implements both from
scratch plus an exact brute-force oracle used for recall validation.
"""
