"""Graph-based importance scoring tests (Eq. 1-4 semantics)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph_is import (
    GraphImportanceScorer,
    edge_radius,
    importance_score,
)


# ----------------------------------------------------------------------
# Eq. 2-3: edge radius
# ----------------------------------------------------------------------
def test_edge_radius_equivalence():
    lam, alpha = 2.0, 0.3
    r = edge_radius(lam, alpha)
    # sim(r) == alpha exactly at the radius.
    assert math.exp(-lam * r) == pytest.approx(alpha)


def test_edge_radius_invalid():
    with pytest.raises(ValueError):
        edge_radius(0.0, 0.5)
    with pytest.raises(ValueError):
        edge_radius(1.0, 1.0)
    with pytest.raises(ValueError):
        edge_radius(1.0, 0.0)


# ----------------------------------------------------------------------
# Eq. 4: importance score
# ----------------------------------------------------------------------
def test_score_four_states_ordering():
    """Paper Fig. 8(b): misclassified > {boundary, isolated} > well."""
    nm = 500
    well = importance_score([50], [0], nm)[0]
    boundary = importance_score([50], [40], nm)[0]
    isolated = importance_score([1], [0], nm)[0]
    misclassified = importance_score([0], [40], nm)[0]
    assert misclassified > boundary > well
    assert misclassified > isolated > well


def test_score_zero_same_capped():
    s = importance_score([0], [0], 500, zero_same_part1=2.0)[0]
    assert s == pytest.approx(math.log(3.0))
    # Strictly above the one-neighbor case.
    assert s > importance_score([1], [0], 500)[0]


def test_score_formula_exact():
    # score = ln(1/4 + 100/500 + 1)
    s = importance_score([4], [100], 500)[0]
    assert s == pytest.approx(math.log(0.25 + 0.2 + 1.0))


def test_score_negative_counts_rejected():
    with pytest.raises(ValueError):
        importance_score([-1], [0])


def test_score_vectorized():
    s = importance_score([1, 2, 4], [0, 10, 100], 500)
    assert s.shape == (3,)
    assert np.all(np.isfinite(s))


@given(same=st.integers(0, 500), other=st.integers(0, 500))
@settings(max_examples=200)
def test_property_score_finite_nonneg(same, other):
    s = importance_score([same], [other], 500)[0]
    assert np.isfinite(s)
    assert s >= 0.0


@given(same=st.integers(1, 500), other=st.integers(0, 499))
@settings(max_examples=100)
def test_property_score_monotonicity(same, other):
    """More other-class neighbors -> higher score; more same-class -> lower."""
    base = importance_score([same], [other], 500)[0]
    assert importance_score([same], [other + 1], 500)[0] > base
    assert importance_score([same + 1], [other], 500)[0] < base


# ----------------------------------------------------------------------
# GraphImportanceScorer end-to-end
# ----------------------------------------------------------------------
def _two_cluster_scorer():
    """20 points in two tight, well-separated clusters; lam = 0.25 puts the
    edge at ~9 same-class median distances (~2.4), inside the gap."""
    rng = np.random.default_rng(0)
    labels = np.array([0] * 10 + [1] * 10)
    emb = np.concatenate(
        [rng.normal(0, 0.1, (10, 4)), rng.normal(5, 0.1, (10, 4)) ]
    )
    s = GraphImportanceScorer(4, labels, lam=0.25, alpha=0.1)
    return s, emb, labels


def test_score_batch_clusters():
    s, emb, labels = _two_cluster_scorer()
    results = s.score_batch(np.arange(20), emb)
    assert len(results) == 20
    for ns in results:
        # Tight clusters: every point sees its 9 same-class mates within
        # the radius and no other-class points.
        assert ns.x_same == 9
        assert ns.x_other == 0


def test_misclassified_point_scores_highest():
    s, emb, labels = _two_cluster_scorer()
    emb = emb.copy()
    emb[0] = emb[15] + 0.01  # class-0 point inside class-1 cluster
    results = s.score_batch(np.arange(20), emb)
    scores = {ns.index: ns.score for ns in results}
    assert scores[0] == max(scores.values())
    r0 = [ns for ns in results if ns.index == 0][0]
    assert r0.x_same == 0
    assert r0.x_other == 10


def test_top_degree_node():
    s, emb, _ = _two_cluster_scorer()
    results = s.score_batch(np.arange(20), emb)
    top = s.top_degree_node(results)
    assert top is not None
    assert top.degree == max(ns.degree for ns in results)
    assert s.top_degree_node([]) is None


def test_neighbor_ids_exclude_self():
    s, emb, _ = _two_cluster_scorer()
    results = s.score_batch(np.arange(20), emb)
    for ns in results:
        assert ns.index not in ns.neighbor_ids


def test_dynamic_update_changes_counts():
    s, emb, _ = _two_cluster_scorer()
    s.score_batch(np.arange(20), emb)
    # Move point 0 into the other cluster and re-score it.
    moved = emb.copy()
    moved[0] = emb[15] + 0.01
    results = s.score_batch(np.array([0]), moved[0:1])
    assert results[0].x_other > 0


def test_auto_calibration_adapts_radius():
    s, emb, _ = _two_cluster_scorer()
    unit_r = edge_radius(s.lam, s.alpha)
    assert s.radius == unit_r  # no batch observed: scale 1.0
    s.score_batch(np.arange(20), emb * 100)  # huge scale
    assert s.radius != unit_r
    assert s.radius > unit_r  # scaled up with the data


def test_hnsw_backend_equivalent_on_clusters():
    rng = np.random.default_rng(1)
    labels = np.array([0] * 15 + [1] * 15)
    emb = np.concatenate(
        [rng.normal(0, 0.1, (15, 4)), rng.normal(5, 0.1, (15, 4))]
    )
    exact = GraphImportanceScorer(4, labels, lam=0.25)
    hnsw = GraphImportanceScorer(
        4, labels, lam=0.25, backend="hnsw", rng=0,
    )
    re = exact.score_batch(np.arange(30), emb)
    rh = hnsw.score_batch(np.arange(30), emb)
    # Tight clusters: both backends find the same neighbor counts.
    for a, b in zip(re, rh):
        assert a.x_same == b.x_same
        assert a.x_other == b.x_other


def test_unknown_backend():
    with pytest.raises(ValueError):
        GraphImportanceScorer(4, np.zeros(2, dtype=int), backend="faiss")


def test_mismatched_batch_rejected():
    s, emb, _ = _two_cluster_scorer()
    with pytest.raises(ValueError):
        s.score_batch(np.arange(3), emb[:2])


def test_score_batch_counts_with_isolated_samples():
    """Empty neighbour lists at the start, middle and end of a batch take
    the zero-same cap and do not shift the other samples' counts."""
    labels = np.array([0, 1, 1, 0, 0, 0])
    emb = np.array([[50.0], [0.0], [0.1], [90.0], [0.2], [70.0]])
    # Same-class median distance 40: lam = 40 puts the edge at ln 2 ~ 0.69.
    s = GraphImportanceScorer(1, labels, lam=40.0, alpha=0.5)
    results = s.score_batch(np.arange(6), emb)
    assert [(ns.x_same, ns.x_other) for ns in results] == [
        (0, 0), (1, 1), (1, 1), (0, 0), (0, 2), (0, 0),
    ]
    assert results[0].score == results[3].score == results[5].score
    assert results[0].neighbor_ids.dtype == np.int64
    assert len(s.score_batch([], np.empty((0, 1)))) == 0


def test_neighbormax_caps_range_results():
    rng = np.random.default_rng(2)
    labels = np.zeros(50, dtype=int)
    emb = rng.normal(0, 0.01, (50, 4))  # all mutually close
    # ~9 median distances: every pair is an edge.
    s = GraphImportanceScorer(4, labels, lam=0.25, neighbormax=10)
    results = s.score_batch(np.arange(50), emb)
    for ns in results:
        assert len(ns.neighbor_ids) <= 10


@pytest.mark.parametrize("backend", ["exact", "hnsw"])
def test_score_batch_matches_per_query_range_search(backend):
    """The batched neighbor-list path (``neighbors_within_batch``) must
    return, per sample, exactly what a single ``neighbors_within`` call
    against the same post-update index state returns — so vectorizing
    ``score_batch`` changes throughput, never scores."""
    rng = np.random.default_rng(4)
    labels = rng.integers(3, size=24)
    emb = rng.normal(0.0, 1.0, (24, 4))
    kwargs = {"rng": 0} if backend == "hnsw" else {}
    # ~0.74 same-class median distances: a radius of ~2.0, between the
    # nearest and the farthest pairs.
    s = GraphImportanceScorer(
        4, labels, lam=2.16, alpha=0.2, backend=backend, **kwargs,
    )
    results = s.score_batch(np.arange(24), emb)
    for ns in results:
        ids, dists = s.index.neighbors_within_batch(
            emb[ns.index][None], s.radius, exclude=np.array([ns.index]),
            max_neighbors=s.neighbormax,
        )[0]
        np.testing.assert_array_equal(np.sort(ns.neighbor_ids), np.sort(ids))
        same = int(np.sum(labels[ids] == labels[ns.index])) if ids.size else 0
        assert ns.x_same == same
        assert ns.x_other == ids.size - same
