"""Property-based tests: HNSW stays consistent under random mutations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ann.brute import BruteForceIndex
from repro.ann.hnsw import HNSWIndex

DIM = 4


@st.composite
def mutation_sequences(draw):
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["add", "update", "remove"]),
            st.integers(0, 25),
            st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False),
                     min_size=DIM, max_size=DIM),
        ),
        min_size=1, max_size=80,
    ))
    return ops


@given(ops=mutation_sequences(), seed=st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_property_hnsw_mirrors_reference_set(ops, seed):
    """After any add/update/remove sequence, the index contains exactly the
    reference id set, every stored vector round-trips, and a self-query at
    high ef finds the stored point."""
    hnsw = HNSWIndex(DIM, M=4, ef_construction=32, rng=seed)
    reference = {}
    for op, key, vec in ops:
        v = np.asarray(vec)
        if op in ("add", "update"):
            hnsw.add(key, v)
            reference[key] = v
            # A query between mutations fills the adjacency cache, so a
            # later mutation that misses an invalidation leaves it stale.
            hnsw.search(v, k=3)
        else:
            if key in reference:
                hnsw.remove(key)
                del reference[key]
    hnsw.validate_invariants()  # incl. no stale cached adjacency list
    assert len(hnsw) == len(reference)
    assert set(hnsw.ids) == set(reference)
    for key, v in reference.items():
        np.testing.assert_array_equal(hnsw.vector(key), v)
    # Search sanity: querying each stored vector finds *something*, and
    # with a generous beam the stored id is among the top results unless
    # duplicates share the position.
    for key, v in list(reference.items())[:5]:
        ids, dists = hnsw.search(v, k=min(5, len(reference)), ef=64)
        assert len(ids) >= 1
        dup = [k for k, u in reference.items() if np.array_equal(u, v)]
        assert any(i in dup for i in ids)


@given(
    n=st.integers(10, 60),
    seed=st.integers(0, 50),
)
@settings(max_examples=25, deadline=None)
def test_property_hnsw_top1_matches_brute_on_clusters(n, seed):
    """On well-separated clusters, HNSW top-1 agrees with exact search."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 10, (3, DIM))
    data = centers[rng.integers(3, size=n)] + rng.normal(0, 0.3, (n, DIM))
    hnsw = HNSWIndex(DIM, M=8, ef_construction=64, rng=seed)
    brute = BruteForceIndex(DIM)
    hnsw.add_batch(np.arange(n), data)
    brute.add_batch(np.arange(n), data)
    for q in rng.normal(0, 10, (5, DIM)):
        h_ids, h_d = hnsw.search(q, k=1, ef=64)
        b_ids, b_d = brute.search(q, k=1)
        # Equal distance is enough (ties possible).
        assert h_d[0] <= b_d[0] + 1e-6
