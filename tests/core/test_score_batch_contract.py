"""What callers outside ``src/`` read off ``score_batch``.

``perfbench/layers.py`` duck-types the scorer: ``ExactShadow.replay``
iterates ``score_batch``'s return on both backends and reads ``.score`` and
``.neighbor_ids`` of every element (for the HNSW answers, long after the
index has moved on), and ``install`` wraps ``scorer.score_batch``,
``scorer.update_embeddings`` and ``scorer.index.neighbors_within_batch``
counting ``len(args[0])``. Nothing in ``src/`` would notice if that shape
broke, so it is pinned here — without importing perfbench.
"""

import numpy as np
import pytest

from repro.core.graph_is import GraphImportanceScorer

FIELDS = ("index", "score", "x_same", "x_other", "neighbor_ids", "neighbor_dists")


def _scorer(backend):
    rng = np.random.default_rng(8)
    labels = rng.integers(3, size=40)
    emb = rng.normal(0.0, 1.0, (40, 6)) + 3.0 * labels[:, None]
    return GraphImportanceScorer(6, labels, backend=backend, rng=0), emb


@pytest.mark.parametrize("backend", ["exact", "hnsw"])
def test_score_batch_reads_as_sized_rows_of_records(backend):
    scorer, emb = _scorer(backend)
    ids = np.arange(0, 40, 2)
    scores = scorer.score_batch(ids, emb[ids])
    assert len(scores) == len(ids)
    rows = list(scores)
    assert [row.index for row in rows] == ids.tolist()
    for row in rows:
        for field in FIELDS:
            assert hasattr(row, field)
        assert isinstance(row.score, float)
        assert row.neighbor_ids.dtype == np.int64
        assert row.neighbor_ids.shape == row.neighbor_dists.shape
        assert row.x_same + row.x_other == row.neighbor_ids.size
        assert np.all(np.diff(row.neighbor_dists) >= 0)
    assert sum(row.neighbor_ids.size for row in rows) > 0
    # Iterating twice gives the same rows (the shadow zips two results).
    for first, again in zip(rows, scores):
        np.testing.assert_array_equal(first.neighbor_ids, again.neighbor_ids)
    assert len(scorer.score_batch([], np.empty((0, 6)))) == 0


def test_hnsw_rows_outlive_later_batches():
    """The shadow keeps the live scorer's answers and reads them after the
    run; the HNSW backend measured every row during the query."""
    scorer, emb = _scorer("hnsw")
    first = scorer.score_batch(np.arange(20), emb[:20])
    scorer.score_batch(np.arange(20, 40), emb[20:])
    assert sum(row.neighbor_ids.size for row in first) > 0


@pytest.mark.parametrize("backend", ["exact", "hnsw"])
def test_one_score_batch_is_one_update_and_one_query_on_the_batch(backend):
    scorer, emb = _scorer(backend)
    calls = []

    def spy(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append((name, len(args[0])))
            return real(*args, **kwargs)

        setattr(owner, name, wrapper)

    spy(scorer, "update_embeddings")
    spy(scorer.index, "neighbors_within_batch")
    scorer.score_batch(np.arange(17), emb[:17])
    assert sorted(calls) == [("neighbors_within_batch", 17), ("update_embeddings", 17)]
