"""Tests for SpiderCachePolicy's calibration knobs (DESIGN.md §6)."""

import numpy as np
import pytest

from repro.core.policy import SCORE_FLOOR, UNIFORM_MIX, SpiderCachePolicy
from repro.data.synthetic import make_clustered_dataset
from repro.storage.backends import RemoteStore
from repro.train.policy_base import PolicyContext


def _ctx(n=200, classes=4, seed=0):
    ds = make_clustered_dataset(n, n_classes=classes, dim=8, rng=seed)
    store = RemoteStore(ds.X, item_nbytes=ds.item_nbytes)
    return PolicyContext(dataset=ds, store=store, total_epochs=10, embedding_dim=16)


def test_invalid_knobs():
    with pytest.raises(ValueError):
        SpiderCachePolicy(hom_radius_scale=0.0)
    with pytest.raises(ValueError):
        SpiderCachePolicy(hom_radius_scale=1.5)
    with pytest.raises(ValueError, match="lam"):
        SpiderCachePolicy(lam=0.0)
    with pytest.raises(ValueError, match="alpha"):
        SpiderCachePolicy(alpha=1.0)
    with pytest.raises(ValueError, match="alpha"):
        SpiderCachePolicy(alpha=0.0)


def test_mixed_weights_sum_to_near_one():
    p = SpiderCachePolicy(rng=0)
    p.setup(_ctx())
    w = p._mixed_weights()
    assert w.shape == (200,)
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(w > 0)


def test_uniform_mix_floors_every_weight():
    p = SpiderCachePolicy(rng=0)
    p.setup(_ctx())
    # Skew the scores heavily; the uniform share still reaches every sample.
    p.score_table.update(np.array([0]), np.array([100.0]))
    w = p._mixed_weights()
    assert w.min() >= UNIFORM_MIX / 200 - 1e-12
    assert w.max() <= UNIFORM_MIX / 200 + (1 - UNIFORM_MIX) + 1e-12


def test_score_floor_bounds_oversampling():
    p = SpiderCachePolicy(rng=0)
    p.setup(_ctx())
    scores = np.full(200, 0.001)
    scores[0] = 1.0
    p.score_table.update(np.arange(200), scores)
    w = p._mixed_weights()
    # The floor alone caps the max/min ratio at 1/SCORE_FLOOR (10); the
    # uniform share only narrows it.
    ratio = w.max() / w.min()
    assert 1.0 < ratio <= 1.0 / SCORE_FLOOR + 1e-9


def test_hom_radius_scale_gates_neighbors():
    """Only neighbors within hom_radius_scale x radius enter the entry."""
    ctx = _ctx()
    tight = SpiderCachePolicy(cache_fraction=0.5, hom_radius_scale=0.05,
                              hom_same_class_only=False, rng=2)
    loose = SpiderCachePolicy(cache_fraction=0.5, hom_radius_scale=1.0,
                              hom_same_class_only=False, rng=2)
    rng = np.random.default_rng(5)
    # Two sub-clusters: near-duplicates within, spread across.
    emb = np.concatenate([
        rng.normal(0.0, 0.02, size=(10, 16)),
        rng.normal(1.0, 0.4, size=(10, 16)),
    ])
    ids = np.arange(20)
    for p in (tight, loose):
        p.setup(_ctx())
        p.after_batch(ids, ids, np.ones(20), emb, epoch=0)
    def covered(p):
        return sum(len(v) for v in p.cache.homophily._items.values())
    assert covered(loose) >= covered(tight)


def test_neighbor_dists_sorted_and_within_radius():
    from repro.core.graph_is import GraphImportanceScorer

    rng = np.random.default_rng(0)
    labels = np.zeros(30, dtype=int)
    emb = np.concatenate([rng.normal(0, 0.1, (15, 4)), rng.normal(4, 0.1, (15, 4))])
    # All one class, so the median pair spans the clusters (~7.8): lam = 8
    # puts the edge at ~2.2, inside the gap.
    s = GraphImportanceScorer(4, labels, lam=8.0)
    for ns in s.score_batch(np.arange(30), emb):
        assert len(ns.neighbor_dists) == len(ns.neighbor_ids)
        assert np.all(np.diff(ns.neighbor_dists) >= 0)
        assert np.all(ns.neighbor_dists <= s.radius + 1e-9)


def test_same_class_scale_calibration():
    """The EMA scale tracks same-class distances, not the overall median."""
    from repro.core.graph_is import GraphImportanceScorer

    rng = np.random.default_rng(1)
    labels = np.array([0] * 16 + [1] * 16)
    # Same-class pairs tight (0.1), cross-class far (10).
    emb = np.concatenate([rng.normal(0, 0.1, (16, 4)), rng.normal(10, 0.1, (16, 4))])
    s = GraphImportanceScorer(4, labels)
    s.score_batch(np.arange(32), emb)
    # Overall median pairwise distance ~ 17 (cross pairs dominate or split);
    # same-class median ~ 0.1 * sqrt(8) ~ 0.4. Radius must track the latter.
    assert s.radius < 2.0


def test_elastic_monotone_clamp():
    from repro.core.elastic import ElasticCacheManager

    mgr = ElasticCacheManager(total_epochs=30, r_start=0.9, r_end=0.5)
    # Declining std activates beta; oscillating accuracy would make Eq. 8
    # bounce without the clamp.
    rngacc = [0.2, 0.8, 0.2, 0.8, 0.2, 0.8] * 5
    stds = np.linspace(1.0, 0.1, 30)
    ratios = [mgr.step(e, stds[e], rngacc[e]) for e in range(30)]
    assert all(a >= b for a, b in zip(ratios, ratios[1:]))


def test_icache_uniform_mix_bounds_weights():
    from repro.baselines.icache import ICacheImpPolicy

    p = ICacheImpPolicy(rng=0)
    p.setup(_ctx())
    w = p._sampling_weights()
    assert w.sum() == pytest.approx(1.0, abs=1e-9)
    # The uniform component floors every weight at 0.7/n, and the
    # importance component is bounded by 0.3 even for an extreme score.
    p.score_table.update(np.array([0]), np.array([50.0]))
    w = p._sampling_weights()
    assert w.min() >= 0.7 / 200 - 1e-12
    assert w.max() <= 0.3 + 0.7 / 200 + 1e-12
