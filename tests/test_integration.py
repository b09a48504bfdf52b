"""Cross-module integration tests asserting the paper's qualitative shapes
at small scale (the benchmarks rerun them at full scale)."""

import numpy as np
import pytest

from repro.baselines.baseline import CoorDLPolicy, LRUBaselinePolicy
from repro.baselines.icache import ICacheFullPolicy
from repro.baselines.shade import ShadePolicy
from repro.core.policy import SpiderCachePolicy
from repro.data.synthetic import make_clustered_dataset, train_test_split
from repro.nn.models import build_model
from repro.train.trainer import Trainer, TrainerConfig


@pytest.fixture(scope="module")
def data():
    ds = make_clustered_dataset(800, n_classes=8, dim=24, rng=0)
    return train_test_split(ds, test_fraction=0.25, rng=1)


def _run(data, policy, epochs=8, seed=2):
    train, test = data
    model = build_model("resnet18", train.dim, train.num_classes, rng=seed)
    cfg = TrainerConfig(epochs=epochs, batch_size=64)
    return Trainer(model, train, test, policy, cfg).run()


@pytest.fixture(scope="module")
def runs(data):
    return {
        "spider": _run(data, SpiderCachePolicy(cache_fraction=0.2, rng=3)),
        "shade": _run(data, ShadePolicy(cache_fraction=0.2, rng=3)),
        "icache": _run(data, ICacheFullPolicy(cache_fraction=0.2, rng=3)),
        "coordl": _run(data, CoorDLPolicy(cache_fraction=0.2, rng=3)),
        "baseline": _run(data, LRUBaselinePolicy(cache_fraction=0.2, rng=3)),
    }


def test_all_policies_learn(runs):
    for name, r in runs.items():
        assert r.best_accuracy > 0.5, name


def test_hit_ratio_ordering(runs):
    """Fig. 14 core ordering: SpiderCache tops every baseline; every
    IS-aware policy beats LRU; CoorDL ~= cache fraction."""
    hits = {k: r.epochs[-1].hit_ratio for k, r in runs.items()}
    assert hits["spider"] > hits["shade"]
    assert hits["spider"] > hits["coordl"]
    assert hits["spider"] > hits["baseline"]
    assert hits["shade"] > hits["baseline"]
    assert hits["coordl"] == pytest.approx(0.2, abs=0.02)
    assert hits["baseline"] < 0.1


def test_training_time_ordering(runs):
    """Table 4 shape: SpiderCache fastest, LRU baseline slowest."""
    times = {k: r.total_time_s for k, r in runs.items()}
    assert times["spider"] < times["coordl"]
    assert times["spider"] < times["baseline"]
    assert times["baseline"] == max(times.values())


def test_spider_speedup_factor(runs):
    """Paper: up to 2.33x over the LRU baseline; we expect >= 1.3x even at
    this tiny scale."""
    speedup = runs["baseline"].total_time_s / runs["spider"].total_time_s
    assert speedup > 1.3


def test_score_std_converges(runs):
    """The importance-score dispersion declines as training converges —
    the Eq. 5 signal the Importance Monitor latches on. (The full Fig. 6(c)
    rise-then-fall shape is reproduced by the E6 benchmark, which measures
    the loss-score dispersion of §3 on the nuisance-noise dataset.)"""
    std = runs["spider"].series("score_std")
    peak = std.argmax()
    assert peak < len(std) / 2  # dispersion peaks early
    assert std[-1] < std[peak] * 0.95  # and has clearly declined since


def test_elastic_ratio_never_below_r_end(runs):
    ratios = runs["spider"].series("imp_ratio")
    assert np.all(ratios >= 0.8 - 1e-9)
    assert np.all(ratios <= 0.9 + 1e-9)


def test_icache_substitutions_recorded(runs):
    assert runs["icache"].series("substitute_ratio").sum() > 0


def test_deterministic_given_seeds(data):
    a = _run(data, SpiderCachePolicy(cache_fraction=0.2, rng=7), epochs=3)
    b = _run(data, SpiderCachePolicy(cache_fraction=0.2, rng=7), epochs=3)
    assert a.final_accuracy == b.final_accuracy
    assert a.total_time_s == pytest.approx(b.total_time_s)
    np.testing.assert_allclose(a.series("hit_ratio"), b.series("hit_ratio"))


def test_larger_cache_higher_hits(data):
    small = _run(data, SpiderCachePolicy(cache_fraction=0.1, rng=3), epochs=5)
    large = _run(data, SpiderCachePolicy(cache_fraction=0.5, rng=3), epochs=5)
    assert large.mean_hit_ratio > small.mean_hit_ratio


def test_cnn_path_end_to_end():
    """The image dataset + CNN models also run through the full stack."""
    from repro.data.images import make_image_dataset
    from repro.data.synthetic import SyntheticDataset
    from repro.nn.models import build_cnn_model

    img = make_image_dataset(200, n_classes=4, image_size=8, rng=0)
    # Wrap images as a dataset the trainer accepts (flattened payload view
    # is what the store serves; the model reshapes internally).
    ds = SyntheticDataset(
        name="img", X=img.X.reshape(len(img), -1), y=img.y,
        kinds=np.zeros(len(img), dtype=np.int64),
        centers=np.zeros((4, img.X[0].size)),
    )
    train, test = train_test_split(ds, rng=1)

    class ReshapingModel:
        def __init__(self):
            self.inner = build_cnn_model((1, 8, 8), 4, channels=(4,),
                                         embedding_dim=16, rng=0)
            self.spec = None
            self.embedding_dim = 16

        def params(self):
            return self.inner.params()

        def train_batch(self, x, y, w=None):
            return self.inner.train_batch(x.reshape(-1, 1, 8, 8), y, w)

        def evaluate(self, x, y, batch_size=256):
            return self.inner.evaluate(x.reshape(-1, 1, 8, 8), y)

    model = ReshapingModel()
    policy = SpiderCachePolicy(cache_fraction=0.3, rng=3)
    cfg = TrainerConfig(epochs=15, batch_size=32, lr=0.1)
    res = Trainer(model, train, test, policy, cfg).run()
    assert res.final_accuracy > 0.3
    assert res.epochs[-1].hit_ratio > 0.1
