"""HNSW snapshot tests: ``state_dict`` / ``load_state_dict``, in memory and
through ``save_state`` / ``load_state`` on disk.

The property test takes its example budget from the Hypothesis profile
(``tests/conftest.py``; ``REPRO_HYPOTHESIS_PROFILE=ci`` in the CI ANN step).
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ann.hnsw import HNSWIndex
from repro.resilience.state import load_state, save_state
from tests.ann import stored_vector

DIM = 4


def _build(n=120, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, dim))
    idx = HNSWIndex(dim, M=8, ef_construction=48, rng=seed)
    idx.add_batch(np.arange(n), data)
    return idx, data


def _restored(idx, path=None, **kwargs):
    """A fresh index (its own rng seed, default parameters) loaded from
    ``idx``'s snapshot — via a file when ``path`` is given."""
    state = idx.state_dict()
    if path is not None:
        state = load_state(save_state(path, state))
    loaded = HNSWIndex(idx.dim, rng=12345, **kwargs)
    loaded.load_state_dict(state)
    return loaded


def _assert_same_state(got, want):
    """Every ``state_dict`` entry alike, arrays byte for byte (dtype
    included), rng state too."""
    want, got = want.state_dict(), got.state_dict()
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[key].dtype == value.dtype, key
            assert got[key].tobytes() == value.tobytes(), key
        else:
            assert got[key] == value, key


def test_roundtrip_identical_search(tmp_path):
    idx, data = _build()
    loaded = _restored(idx, tmp_path / "index.npz")
    assert len(loaded) == len(idx)
    assert loaded.ids == idx.ids
    assert loaded.max_level == idx.max_level
    loaded.validate_invariants()
    rng = np.random.default_rng(2)
    for q in rng.normal(size=(10, 6)):
        a_ids, a_d = idx.search(q, k=5, ef=32)
        b_ids, b_d = loaded.search(q, k=5, ef=32)
        np.testing.assert_array_equal(a_ids, b_ids)
        np.testing.assert_array_equal(a_d, b_d)


def test_roundtrip_vectors_exact(tmp_path):
    idx, data = _build(n=30)
    loaded = _restored(idx, tmp_path / "i.npz")
    for i in range(30):
        np.testing.assert_array_equal(stored_vector(loaded, i), stored_vector(idx, i))


def test_loaded_index_accepts_mutations(tmp_path):
    idx, data = _build(n=40)
    loaded = _restored(idx, tmp_path / "i.npz")
    loaded.add(1000, np.ones(6))
    ids, _ = loaded.search(np.ones(6), k=1, ef=32)
    assert ids[0] == 1000
    loaded.remove(0)
    assert 0 not in loaded
    loaded.validate_invariants()


def test_empty_index_roundtrip(tmp_path):
    idx = HNSWIndex(4, rng=0)
    loaded = _restored(idx, tmp_path / "empty.npz")
    assert len(loaded) == 0
    ids, _ = loaded.search(np.zeros(4), k=3)
    assert len(ids) == 0
    # Loading the empty snapshot also empties a populated index.
    full, _ = _build(n=10, dim=4)
    full.load_state_dict(idx.state_dict())
    assert len(full) == 0 and full.ids == []
    full.validate_invariants()


def test_params_preserved(tmp_path):
    idx = HNSWIndex(5, M=7, ef_construction=33, rng=0)
    idx.add(0, np.zeros(5))
    loaded = _restored(idx, tmp_path / "p.npz")
    assert (loaded.dim, loaded.M, loaded.M0) == (5, 7, 14)
    assert loaded.ef_construction == 33
    with pytest.raises(ValueError, match="dim"):
        HNSWIndex(6).load_state_dict(idx.state_dict())


def test_snapshot_between_two_batches_continues_like_its_twin(tmp_path):
    """The path training takes: a snapshot between two ``add_batch`` calls,
    then batches of new ids, re-inserts and in-batch duplicates. The
    restored index reaches its un-snapshotted twin's state byte for byte
    (graph, rows, rng) and answers alike."""
    rng = np.random.default_rng(4)
    twin = HNSWIndex(6, M=8, ef_construction=48, rng=9, capacity=16)
    for start in range(0, 192, 64):
        twin.add_batch(np.arange(start, start + 64), rng.normal(size=(64, 6)))
    loaded = _restored(twin, tmp_path / "mid.npz", capacity=4)
    for _ in range(3):
        ids, rows = rng.integers(0, 300, size=64), rng.normal(size=(64, 6))
        twin.add_batch(ids, rows)
        loaded.add_batch(ids, rows)
    loaded.validate_invariants()
    _assert_same_state(loaded, twin)
    queries = rng.normal(size=(20, 6))
    for q in queries:
        for a, b in zip(loaded.search(q, k=5), twin.search(q, k=5)):
            np.testing.assert_array_equal(a, b)


operation = st.tuples(
    st.sampled_from(["add", "add", "remove"]),  # add doubles as update
    st.integers(0, 25),
    st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False),
             min_size=DIM, max_size=DIM),
)


def _apply(idx, ops):
    """Add / update / remove traffic, a query after every mutation."""
    for op, key, vec in ops:
        if op == "add":
            idx.add(key, np.asarray(vec))
        elif key in idx:
            idx.remove(key)
        idx.search(np.asarray(vec), k=3)


@given(
    before=st.lists(operation, min_size=2, max_size=60),
    after=st.lists(operation, min_size=1, max_size=60),
    seed=st.integers(0, 100),
    on_disk=st.booleans(),
)
def test_mid_sequence_snapshot_continues_like_its_twin(before, after, seed, on_disk):
    """What ``save`` / ``load`` could not give: a restored index — freed
    rows pending reuse, a smaller capacity that must regrow — takes further
    add / update / remove traffic to the very graph its un-snapshotted twin
    reaches, level draws included."""
    twin = HNSWIndex(DIM, M=4, ef_construction=24, rng=seed, capacity=8)
    _apply(twin, before)
    if len(twin):
        twin.remove(twin.ids[0])  # a freed row is pending in every snapshot
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mid.npz" if on_disk else None
        loaded = _restored(twin, path, capacity=4)
    loaded.validate_invariants()
    assert (loaded._free, loaded._levels) == (twin._free, twin._levels)

    _apply(twin, after)
    _apply(loaded, after)

    loaded.validate_invariants()
    assert loaded.ids == twin.ids
    _assert_same_state(loaded, twin)
    assert loaded._free == twin._free
    assert loaded.max_level == twin.max_level
    queries = np.asarray([vec for _, _, vec in after])
    for q in queries:
        for got, want in zip(loaded.search(q, k=4), twin.search(q, k=4)):
            np.testing.assert_array_equal(got, want)
    for got, want in zip(
        loaded.neighbors_within_batch(queries, 3.0),
        twin.neighbors_within_batch(queries, 3.0),
    ):
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
