"""BruteForceIndex tests."""

import numpy as np
import pytest

from repro.ann.brute import BruteForceIndex
from tests.ann import stored_vector


@pytest.fixture
def idx():
    index = BruteForceIndex(dim=4)
    rng = np.random.default_rng(0)
    for i in range(30):
        index.add(i, rng.normal(size=4))
    return index


def test_len_contains_ids(idx):
    assert len(idx) == 30
    assert 5 in idx
    assert 99 not in idx
    assert sorted(idx.ids) == list(range(30))


def test_vector_roundtrip():
    idx = BruteForceIndex(dim=3)
    v = np.array([1.0, 2.0, 3.0])
    idx.add(7, v)
    np.testing.assert_array_equal(stored_vector(idx, 7), v)
    # The index keeps its own copy.
    v[0] = 99.0
    assert stored_vector(idx, 7)[0] == 1.0


def test_add_overwrites(idx):
    idx.add(3, np.zeros(4))
    assert len(idx) == 30
    np.testing.assert_array_equal(stored_vector(idx, 3), np.zeros(4))


def test_wrong_dim_rejected():
    idx = BruteForceIndex(dim=4)
    with pytest.raises(ValueError):
        idx.add(0, np.zeros(3))


def test_bad_dim_init():
    with pytest.raises(ValueError):
        BruteForceIndex(dim=0)


def test_search_exact(idx):
    q = stored_vector(idx, 10)
    ids, dists = idx.search(q, k=1)
    assert ids[0] == 10
    # GEMM-expansion distance has ~1e-8 abs error at true zero.
    assert dists[0] == pytest.approx(0.0, abs=1e-6)


def test_search_sorted(idx):
    ids, dists = idx.search(np.zeros(4), k=10)
    assert len(ids) == 10
    assert np.all(np.diff(dists) >= 0)


def test_search_k_exceeds_size():
    idx = BruteForceIndex(dim=2)
    idx.add(0, np.zeros(2))
    ids, dists = idx.search(np.zeros(2), k=10)
    assert len(ids) == 1


def test_search_empty_index():
    idx = BruteForceIndex(dim=2)
    ids, dists = idx.search(np.zeros(2), k=3)
    assert len(ids) == 0 and len(dists) == 0


def test_remove_swaps_last(idx):
    idx.remove(0)
    assert 0 not in idx
    assert len(idx) == 29
    # Remaining searches still work.
    ids, _ = idx.search(np.zeros(4), k=29)
    assert 0 not in ids


def test_remove_missing_raises(idx):
    with pytest.raises(KeyError):
        idx.remove(1000)


def test_neighbors_within_radius(idx):
    q = np.zeros(4)
    ids, dists = idx.neighbors_within_batch(q[None], radius=1.5)[0]
    assert np.all(dists <= 1.5)
    # Verify completeness against search.
    all_ids, all_d = idx.search(q, k=30)
    expected = set(all_ids[all_d <= 1.5].tolist())
    assert set(ids.tolist()) == expected


def test_neighbors_within_batch_excludes_self(idx):
    queries = np.stack([stored_vector(idx, i) for i in [0, 1, 2]])
    res = idx.neighbors_within_batch(queries, radius=10.0, exclude=np.array([0, 1, 2]))
    for qi, (ids, dists) in enumerate(res):
        assert qi not in ids
        assert np.all(np.diff(dists) >= 0)


def test_neighbors_within_batch_max_neighbors(idx):
    res = idx.neighbors_within_batch(np.zeros((1, 4)), radius=100.0, max_neighbors=5)
    assert len(res[0][0]) == 5


def test_add_batch_length_mismatch():
    idx = BruteForceIndex(dim=2)
    with pytest.raises(ValueError):
        idx.add_batch(np.array([0, 1]), np.zeros((3, 2)))


def test_capacity_growth():
    idx = BruteForceIndex(dim=2, capacity=2)
    for i in range(10):
        idx.add(i, np.full(2, float(i)))
    assert len(idx) == 10
    np.testing.assert_array_equal(stored_vector(idx, 9), [9.0, 9.0])
