"""Differential HNSW tests: vs brute force, batch vs single.

These pin the tentpole's behavioral contracts:

* An excluding query returns exactly ``k`` results whenever ``k+1``
  elements are indexed (the widened-beam regression fix).
* Recall vs the exact backend stays high through dynamic update/remove
  churn (the re-link path keeps the graph navigable).
* ``neighbors_within_batch`` (the lockstep path) returns the same ids as
  one-row batches, with distances equal up to the fused kernel's
  floating-point summation order.
* ``validate_invariants`` holds after arbitrary mutation sequences.
"""

import numpy as np
import pytest

from repro.ann.brute import BruteForceIndex
from repro.ann import hnsw
from repro.ann.hnsw import HNSWIndex

DIM = 16


def _clustered(n, rng, dim=DIM, centers=6):
    c = rng.normal(0.0, 4.0, (centers, dim))
    return c[rng.integers(centers, size=n)] + rng.normal(0.0, 1.0, (n, dim))


@pytest.fixture
def built(monkeypatch):
    monkeypatch.setattr(hnsw, "EF_SEARCH", 32)
    rng = np.random.default_rng(7)
    data = _clustered(400, rng)
    idx = HNSWIndex(DIM, M=8, ef_construction=64, rng=0, capacity=400)
    idx.add_batch(np.arange(400), data)
    brute = BruteForceIndex(DIM, capacity=400)
    brute.add_batch(np.arange(400), data)
    return idx, brute, data, rng


def _nearest_excluding(idx, query, k, exclude):
    """The ``k`` nearest ids but ``exclude``: an unbounded range query."""
    return idx.neighbors_within_batch(
        query[None], np.inf, exclude=np.array([exclude]), max_neighbors=k
    )[0]


def test_exclude_returns_exactly_k(built, monkeypatch):
    """With k+1 elements indexed, exclusion must not under-fill the k
    results — even at the tightest beam (ef == k)."""
    idx, _, data, _ = built
    for qi in (0, 17, 203):
        for k in (1, 5, 10):
            monkeypatch.setattr(hnsw, "EF_SEARCH", k)
            ids, dists = _nearest_excluding(idx, data[qi], k, qi)
            assert len(ids) == k
            assert qi not in ids
            assert np.all(np.diff(dists) >= 0)


def test_exclude_minimal_index(monkeypatch):
    """k+1 indexed, exclude one: exactly k must come back."""
    monkeypatch.setattr(hnsw, "EF_SEARCH", 3)
    idx = HNSWIndex(DIM, M=4, ef_construction=16, rng=0)
    rng = np.random.default_rng(1)
    vecs = rng.normal(size=(4, DIM))
    idx.add_batch(np.arange(4), vecs)
    ids, _ = _nearest_excluding(idx, vecs[0], 3, 0)
    assert len(ids) == 3
    assert 0 not in ids


def test_recall_after_update_remove_churn(built):
    """Dynamic churn (drift updates + removals) keeps recall high."""
    idx, brute, data, rng = built
    # Drift a third of the vectors, remove some, add replacements.
    for i in rng.choice(400, size=130, replace=False):
        moved = data[i] + rng.normal(0.0, 0.5, DIM)
        idx.update(int(i), moved)
        brute.add(int(i), moved)
        data[i] = moved
    removed = rng.choice(400, size=40, replace=False)
    for i in removed:
        idx.remove(int(i))
        brute.remove(int(i))
    idx.validate_invariants()
    queries = _clustered(50, rng)
    hits = total = 0
    for q in queries:
        h_ids, _ = idx.search(q, k=10, ef=80)
        b_ids, _ = brute.search(q, k=10)
        hits += len(set(h_ids) & set(b_ids))
        total += 10
    assert hits / total >= 0.9


def test_batch_exclude_matches_single(built):
    """Per-query exclusion (mixed with -1 = none) keeps bit-parity: the
    beam widening applies only to rows that actually exclude."""
    idx, _, data, rng = built
    queries = data[:30]
    exclude = np.where(np.arange(30) % 2 == 0, np.arange(30), -1)
    batched = idx.neighbors_within_batch(
        queries, np.inf, exclude=exclude, max_neighbors=6
    )
    for qi, (bi, bd) in enumerate(batched):
        si, sd = idx.neighbors_within_batch(
            queries[qi : qi + 1], np.inf, exclude=exclude[qi : qi + 1],
            max_neighbors=6,
        )[0]
        assert len(bi) == 6
        np.testing.assert_array_equal(bi, si)
        np.testing.assert_allclose(bd, sd, rtol=1e-12, atol=1e-6)
        if exclude[qi] >= 0:
            assert exclude[qi] not in bi


def test_neighbors_within_batch_matches_single(built):
    idx, _, data, rng = built
    queries = data[:25]
    exclude = np.arange(25)
    radius = 3.0
    batched = idx.neighbors_within_batch(
        queries, radius, exclude=exclude, max_neighbors=64
    )
    for qi, (ids, dists) in enumerate(batched):
        s_ids, s_dists = idx.neighbors_within_batch(
            queries[qi : qi + 1], radius, exclude=exclude[qi : qi + 1],
            max_neighbors=64,
        )[0]
        np.testing.assert_array_equal(ids, s_ids)
        np.testing.assert_allclose(dists, s_dists, rtol=1e-12, atol=1e-6)
        assert exclude[qi] not in ids
        assert np.all(dists <= radius)


def test_invariants_after_mutation_storm():
    rng = np.random.default_rng(11)
    idx = HNSWIndex(DIM, M=4, ef_construction=24, rng=2, capacity=8)
    live = set()
    for step in range(300):
        op = rng.integers(3)
        key = int(rng.integers(60))
        if op == 2 and key in live:
            idx.remove(key)
            live.discard(key)
        else:
            idx.add(key, rng.normal(size=DIM))
            live.add(key)
    idx.validate_invariants()
    assert set(idx.ids) == live
    if live:
        k = min(5, len(live))
        ids, _ = idx.search(rng.normal(size=DIM), k=k, ef=32)
        assert len(ids) == k
