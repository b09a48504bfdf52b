#!/usr/bin/env python
"""ANN substrate demo: HNSW search, dynamic updates, and PQ compression.

The graph-based IS algorithm needs fast approximate neighbor search over
*moving* embeddings. This example exercises the HNSW index directly —
build, query, update, and delete — and shows Product Quantization shrinking
the index memory by ~16x at small recall cost (the paper's Table-2 story).

Run:  python examples/ann_index_demo.py
"""

import time

import numpy as np

from repro.ann.brute import BruteForceIndex
from repro.ann.hnsw import HNSWIndex
from repro.ann.index_stats import IndexStorageModel
from repro.ann.pq import ProductQuantizer


def main() -> None:
    rng = np.random.default_rng(0)
    n, dim = 3000, 64
    centers = rng.normal(0, 4, (20, dim))
    data = centers[rng.integers(20, size=n)] + rng.normal(0, 1, (n, dim))

    # --- Build ---------------------------------------------------------
    t0 = time.perf_counter()
    hnsw = HNSWIndex(dim, M=16, ef_construction=100, rng=1)
    hnsw.add_batch(np.arange(n), data)
    print(f"HNSW: built {n} x {dim} in {time.perf_counter() - t0:.1f}s, "
          f"max level {hnsw.max_level}")

    brute = BruteForceIndex(dim)
    brute.add_batch(np.arange(n), data)

    # --- Search quality vs speed ----------------------------------------
    queries = rng.normal(0, 4, (100, dim))
    for ef in [16, 64]:
        t0 = time.perf_counter()
        recall = 0.0
        for q in queries:
            h_ids, _ = hnsw.search(q, k=10, ef=ef)
            b_ids, _ = brute.search(q, k=10)
            recall += len(set(h_ids) & set(b_ids)) / 10
        dt = (time.perf_counter() - t0) / len(queries) * 1e3
        print(f"  ef={ef:>3}: recall@10 = {recall / len(queries):.3f}, "
              f"{dt:.2f} ms/query (incl. exact oracle)")

    # --- Dynamic updates (embeddings drift during training) --------------
    moved_id = 7
    target = data[100]
    hnsw.update(moved_id, target + 0.01)
    ids, _ = hnsw.search(target, k=2, ef=64)
    print(f"after update: neighbors of target = {ids.tolist()} "
          f"(expect {100} and {moved_id})")
    hnsw.remove(moved_id)
    ids, _ = hnsw.search(target, k=2, ef=64)
    print(f"after remove: {moved_id} gone -> {ids.tolist()}")

    # --- PQ compression ---------------------------------------------------
    pq = ProductQuantizer(dim=dim, m=8, nbits=8)
    pq.train(data[:1000], rng=2)
    codes = pq.encode(data)
    raw_bytes = data.nbytes
    print(f"\nPQ: {raw_bytes / 1024:.0f} KB raw -> {codes.nbytes / 1024:.0f} KB codes "
          f"({raw_bytes / codes.nbytes:.0f}x), "
          f"mean reconstruction error {pq.quantization_error(data[:200]):.2f}")
    q = data[0]
    adc = pq.adc_distances(q, codes)
    print(f"ADC nearest to sample 0: id {int(adc.argmin())} (expect 0)")

    # --- Table-2-style projection ----------------------------------------
    model = IndexStorageModel()
    for name, count, raw in [("ImageNet-1K", 1_200_000, 138 * 1024**3),
                             ("LAION-400M", 400_000_000, 240 * 1024**4)]:
        est = model.index_size_bytes(count)
        print(f"{name}: index ~{est / 1024**2:.0f} MB "
              f"({model.compression_ratio(count, raw):,.0f}x compression)")


if __name__ == "__main__":
    main()
