"""Microbenchmarks: hot-path throughput of the core data structures.

Unlike the experiment benches (one-shot `pedantic` runs regenerating paper
artifacts), these are real repeated-timing benchmarks for the operations on
SpiderCache's critical path: cache lookups, heap updates, neighbor search,
and batch scoring. Regressions here translate directly into data-loading
stall (the IS stage must stay inside the Fig.-12 overlap window).
"""

import numpy as np
import pytest

from repro.ann.brute import BruteForceIndex
from repro.ann.hnsw import HNSWIndex
from repro.cache.lru import LRUCache
from repro.core.graph_is import GraphImportanceScorer
from repro.core.importance_cache import ImportanceCache
from repro.core.semantic_cache import SemanticCache

N = 2000
DIM = 64


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(0)
    centers = rng.normal(0, 4, (10, DIM))
    return centers[rng.integers(10, size=N)] + rng.normal(0, 1, (N, DIM))


def test_importance_cache_heap(benchmark):
    """Admit, rescore half the residents in one batch call, evict all."""
    rng = np.random.default_rng(1)
    priorities = rng.random(1000)
    halves = np.arange(0, 1000, 2)

    def run():
        c = ImportanceCache(1000)
        for i, p in enumerate(priorities.tolist()):
            c.admit(i, p, i)
        c.update_scores(halves, priorities[halves] * 2)
        c.resize(0)

    benchmark(run)


def test_lru_get_put(benchmark):
    rng = np.random.default_rng(2)
    keys = rng.integers(0, 500, 5000)

    def run():
        c = LRUCache(200)
        for k in keys:
            if c.lookup(int(k)) is None:
                c.admit(int(k), 0.0, k)

    benchmark(run)


def test_importance_cache_admit(benchmark):
    rng = np.random.default_rng(3)
    scores = rng.random(3000)

    def run():
        c = ImportanceCache(300)
        for i, s in enumerate(scores):
            c.admit(i, float(s), i)

    benchmark(run)


def test_semantic_cache_fetch(benchmark):
    rng = np.random.default_rng(4)
    keys = rng.integers(0, 800, 4000)
    scores = rng.random(800)

    def run():
        c = SemanticCache(160, imp_ratio=0.9)
        for k in keys:
            c.fetch(int(k), float(scores[k]), lambda i: i)

    benchmark(run)


def _brute_query(vectors):
    idx = BruteForceIndex(DIM)
    idx.add_batch(np.arange(N), vectors)
    queries = vectors[:64]
    return lambda: idx.neighbors_within_batch(queries, radius=5.0, max_neighbors=64)


def test_brute_batch_query(benchmark, vectors):
    """Scan plus every row read: rows are measured and sorted on demand,
    so a result nobody iterates has not paid for them."""
    query = _brute_query(vectors)
    benchmark(lambda: list(query()))


def test_brute_batch_scan_only(benchmark, vectors):
    """What the scorer pays per batch: membership (CSR ids), no row read."""
    benchmark(_brute_query(vectors))


def test_hnsw_query(benchmark, vectors):
    idx = HNSWIndex(DIM, M=16, ef_construction=100, rng=5)
    idx.add_batch(np.arange(500), vectors[:500])
    q = vectors[0]

    benchmark(lambda: idx.search(q, k=10, ef=50))


def test_scorer_batch(benchmark, vectors):
    labels = np.random.default_rng(6).integers(0, 10, N)
    scorer = GraphImportanceScorer(DIM, labels)
    # Warm the index with most of the data.
    scorer.score_batch(np.arange(0, 1500), vectors[:1500])
    batch_ids = np.arange(1500, 1564)
    batch_emb = vectors[1500:1564]

    benchmark(lambda: scorer.score_batch(batch_ids, batch_emb))
