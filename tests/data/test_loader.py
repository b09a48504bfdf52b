"""DataLoader tests."""

import numpy as np
import pytest

from repro.cache.base import FetchSource
from repro.core.semantic_cache import FetchOutcome
from repro.data.loader import DataLoader


def _batches(dl, order):
    """Every batch slot of ``order``, collated (the epoch loop's walk)."""
    return [dl.collate(dl.batch_ids(order, s)) for s in range(dl.n_batches(order))]


def _per_id(fetch):
    """A batch entry that serves each id through ``fetch``."""
    return lambda ids: [fetch(int(i)) for i in ids]


def _identity_fetch(payloads):
    def fetch(i):
        return FetchOutcome(i, i, payloads[i], FetchSource.REMOTE)

    return _per_id(fetch)


def test_batching_sizes():
    payloads = np.arange(10.0)[:, None]
    labels = np.arange(10) % 3
    dl = DataLoader(labels, _identity_fetch(payloads), batch_size=4)
    batches = _batches(dl, np.arange(10))
    assert [len(b) for b in batches] == [4, 4, 2]


def test_collation_matches_order():
    payloads = np.arange(20.0)[:, None]
    labels = np.arange(20)
    dl = DataLoader(labels, _identity_fetch(payloads), batch_size=8)
    order = np.array([5, 3, 9, 1, 0, 7, 2, 8])
    (batch,) = _batches(dl, order)
    np.testing.assert_array_equal(batch.requested, order)
    np.testing.assert_array_equal(batch.X[:, 0], order.astype(float))
    np.testing.assert_array_equal(batch.y, order)


def test_substitution_labels_follow_served():
    payloads = np.arange(10.0)[:, None]
    labels = np.arange(10) * 10

    def fetch(i):
        # Every request for an odd id is served id-1 instead.
        served = i - 1 if i % 2 else i
        return FetchOutcome(i, served, payloads[served], FetchSource.HOMOPHILY)

    dl = DataLoader(labels, _per_id(fetch), batch_size=4)
    (b,) = _batches(dl, np.array([1, 2, 3, 4]))
    np.testing.assert_array_equal(b.served, [0, 2, 2, 4])
    np.testing.assert_array_equal(b.y, [0, 20, 20, 40])
    assert np.sum(b.requested != b.served) == 2


def test_invalid_batch_size():
    with pytest.raises(ValueError):
        DataLoader(np.zeros(2, dtype=int), lambda ids: [], batch_size=0)


def test_sources_recorded():
    payloads = np.zeros((4, 1))

    def fetch(i):
        src = FetchSource.IMPORTANCE if i < 2 else FetchSource.REMOTE
        return FetchOutcome(i, i, payloads[i], src)

    dl = DataLoader(np.zeros(4, dtype=int), _per_id(fetch), batch_size=4)
    (b,) = _batches(dl, np.arange(4))
    assert b.sources == [
        FetchSource.IMPORTANCE,
        FetchSource.IMPORTANCE,
        FetchSource.REMOTE,
        FetchSource.REMOTE,
    ]


def test_empty_order_yields_nothing():
    dl = DataLoader(np.zeros(4, dtype=int), lambda ids: [], batch_size=2)
    assert _batches(dl, np.array([], dtype=int)) == []


def test_collate_calls_the_batch_entry_once_per_batch():
    payloads = np.arange(10.0)[:, None]
    seen = []

    def fetch_many(ids):
        seen.append([int(i) for i in ids])
        return [FetchOutcome(int(i), int(i), payloads[i], FetchSource.REMOTE)
                for i in ids]

    dl = DataLoader(np.arange(10), fetch_many, batch_size=4)
    batches = _batches(dl, np.arange(10))
    assert seen == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    np.testing.assert_array_equal(batches[2].served, [8, 9])


def test_skipped_count_accumulates_across_collates():
    """Every payload-less outcome is counted once, over any number of
    collates, fully skipped batches included."""

    def fetch(i):
        if i % 3 == 0:
            return FetchOutcome(i, i, None, FetchSource.SKIPPED)
        return FetchOutcome(i, i, np.full(2, float(i)), FetchSource.REMOTE)

    dl = DataLoader(np.zeros(30, dtype=np.int64), _per_id(fetch), batch_size=4)
    order = np.arange(30)
    batches = _batches(dl, order)
    assert dl.skipped_count == 10  # ids 0, 3, ..., 27
    assert sum(len(b) for b in batches if b is not None) == 20
    assert dl.collate(np.array([0, 3, 6])) is None
    assert dl.skipped_count == 13
