"""HNSW index tests: construction, recall vs brute force, dynamic updates."""

import numpy as np
import pytest

from repro.ann.brute import BruteForceIndex
from repro.ann.hnsw import HNSWIndex
from tests.ann import stored_vector


def _build(n=200, dim=8, seed=0, **kw):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, dim))
    idx = HNSWIndex(dim, rng=seed, **kw)
    for i in range(n):
        idx.add(i, data[i])
    return idx, data


def test_empty_search():
    idx = HNSWIndex(4)
    ids, d = idx.search(np.zeros(4), k=3)
    assert len(ids) == 0


def test_single_element():
    idx = HNSWIndex(3, rng=0)
    idx.add(0, np.ones(3))
    ids, d = idx.search(np.ones(3), k=1)
    assert ids[0] == 0
    assert d[0] == pytest.approx(0.0, abs=1e-12)


def test_invalid_params():
    with pytest.raises(ValueError):
        HNSWIndex(0)
    with pytest.raises(ValueError):
        HNSWIndex(4, M=1)


def test_wrong_dim_rejected():
    idx = HNSWIndex(4)
    with pytest.raises(ValueError):
        idx.add(0, np.zeros(5))


def test_len_contains_vector():
    idx, data = _build(50)
    assert len(idx) == 50
    assert 10 in idx and 99 not in idx
    np.testing.assert_allclose(stored_vector(idx, 10), data[10])


def test_self_query_returns_self():
    idx, data = _build(100)
    for i in [0, 17, 50, 99]:
        ids, d = idx.search(data[i], k=1, ef=50)
        assert ids[0] == i


def test_recall_vs_brute_force():
    """HNSW recall@10 should be high on clustered data."""
    idx, data = _build(300, dim=8, ef_construction=150)
    brute = BruteForceIndex(8)
    brute.add_batch(np.arange(300), data)
    rng = np.random.default_rng(42)
    queries = rng.normal(size=(20, 8))
    recalls = []
    for q in queries:
        h_ids, _ = idx.search(q, k=10, ef=80)
        b_ids, _ = brute.search(q, k=10)
        recalls.append(len(set(h_ids) & set(b_ids)) / 10)
    assert np.mean(recalls) >= 0.85


def test_search_results_sorted():
    idx, data = _build(150)
    ids, d = idx.search(np.zeros(8), k=20)
    assert np.all(np.diff(d) >= 0)


def test_exclude_self():
    idx, data = _build(80)
    ids, _ = idx.neighbors_within_batch(
        data[5][None], np.inf, exclude=np.array([5]), max_neighbors=5
    )[0]
    assert len(ids) == 5
    assert 5 not in ids


def test_dynamic_update_changes_vector():
    idx, data = _build(60)
    new_v = np.full(8, 50.0)
    idx.update(7, new_v)
    assert len(idx) == 60
    np.testing.assert_allclose(stored_vector(idx, 7), new_v)
    # After moving far away, 7 is no longer near its old position...
    ids, _ = idx.search(data[7], k=5, ef=60)
    assert 7 not in ids
    # ...but is findable at its new one.
    ids, d = idx.search(new_v, k=1, ef=60)
    assert ids[0] == 7


def test_remove_element():
    idx, data = _build(60)
    idx.remove(3)
    assert 3 not in idx
    assert len(idx) == 59
    ids, _ = idx.search(data[3], k=10, ef=60)
    assert 3 not in ids


def test_remove_missing_raises():
    idx, _ = _build(10)
    with pytest.raises(KeyError):
        idx.remove(1000)


def test_remove_entry_point_repairs():
    idx = HNSWIndex(4, rng=0)
    for i in range(20):
        idx.add(i, np.random.default_rng(i).normal(size=4))
    # Remove whatever node is the entry (exercise repair path) by removing
    # all high-level nodes one at a time.
    for i in range(10):
        idx.remove(i)
    assert len(idx) == 10
    ids, _ = idx.search(np.zeros(4), k=5)
    assert len(ids) == 5


def test_degree_bounded():
    idx, _ = _build(300, ef_construction=100)
    for i in idx.ids:
        assert len(idx.graph_neighbors(i)) <= idx.M0


def test_neighbors_within_filters_radius():
    idx, data = _build(150)
    ids, d = idx.neighbors_within_batch(
        data[0][None], radius=2.0, exclude=np.array([0])
    )[0]
    assert np.all(d <= 2.0)
    assert 0 not in ids


def test_graph_neighbors_accessor():
    idx, _ = _build(50)
    n = idx.graph_neighbors(0, layer=0)
    assert isinstance(n, list)
    assert all(nid in idx for nid in n)


def test_mostly_bidirectional():
    idx, _ = _build(200)
    assert idx.check_symmetric_reachability() > 0.5


def test_add_batch():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(40, 4))
    idx = HNSWIndex(4, rng=1)
    idx.add_batch(np.arange(40), data)
    assert len(idx) == 40


def test_bad_batch_changes_nothing():
    """Every row is checked before the index changes: a batch that would
    re-link stored ids and insert new ones, with one bad row in the
    middle, raises and leaves the snapshot byte-identical."""
    idx, _ = _build(40)
    before = idx.state_dict()
    rows = np.random.default_rng(1).normal(size=(5, 8))
    ids = [3, 100, 101, 102, 7]
    for bad in (np.nan, np.inf):
        batch = rows.copy()
        batch[2, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            idx.add_batch(ids, batch)
    with pytest.raises(ValueError):  # ragged: one row one short
        idx.add_batch(ids, [rows[0], rows[1], rows[2, :7], rows[3], rows[4]])
    with pytest.raises(ValueError, match="dim"):
        idx.add_batch(ids, rows[:, :7])
    with pytest.raises(ValueError, match="length"):
        idx.add_batch(ids[:4], rows)
    after = idx.state_dict()
    assert after.keys() == before.keys()
    for key, value in before.items():
        if isinstance(value, np.ndarray):
            assert after[key].tobytes() == value.tobytes(), key
        else:
            assert after[key] == value, key


def test_in_batch_duplicates_keep_the_last_row():
    """A repeated id keeps its last row, and each distinct new id draws one
    level, in first-occurrence order: the rng use, levels and id order of
    the same rows added one by one."""
    ids = [5, 1, 7, 5, 9, 1, 5, 12]  # 1 is stored already; 5 comes thrice
    rows = np.random.default_rng(2).normal(size=(len(ids), 8))
    batched, _ = _build(3)
    one_by_one, _ = _build(3)
    batched.add_batch(ids, rows)
    for item_id, row in zip(ids, rows):
        one_by_one.add(item_id, row)
    batched.validate_invariants()
    assert len(batched) == 3 + 4
    for item_id, row in dict(zip(ids, rows)).items():  # each id's last row
        np.testing.assert_array_equal(stored_vector(batched, item_id), row)
    assert batched._rng.bit_generator.state == one_by_one._rng.bit_generator.state
    assert batched.ids == one_by_one.ids
    assert [batched.node_level(i) for i in batched.ids] == [
        one_by_one.node_level(i) for i in one_by_one.ids
    ]


def test_deterministic_given_seed():
    a, _ = _build(80, seed=5)
    b, _ = _build(80, seed=5)
    q = np.zeros(8)
    np.testing.assert_array_equal(a.search(q, k=10)[0], b.search(q, k=10)[0])
