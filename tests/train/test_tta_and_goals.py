"""Time-to-accuracy metric and the imp-ratio accuracy/speed trade-off."""

import numpy as np
import pytest

from repro.core.policy import SpiderCachePolicy
from repro.train.metrics import EpochMetrics, TrainResult


def _result(accs, time_per_epoch=2.0):
    r = TrainResult("p", "m", "d")
    for e, a in enumerate(accs):
        r.epochs.append(EpochMetrics(
            epoch=e, train_loss=0.0, val_accuracy=a, hit_ratio=0.0,
            exact_hit_ratio=0.0, substitute_ratio=0.0,
            data_load_s=time_per_epoch, compute_s=0.0, is_visible_s=0.0,
            epoch_time_s=time_per_epoch,
        ))
    return r


# ----------------------------------------------------------------------
# time_to_accuracy
# ----------------------------------------------------------------------
def test_tta_first_crossing():
    r = _result([0.3, 0.5, 0.7, 0.9])
    assert r.time_to_accuracy(0.6) == pytest.approx(6.0)  # end of epoch 2


def test_tta_immediate():
    r = _result([0.8, 0.9])
    assert r.time_to_accuracy(0.5) == pytest.approx(2.0)


def test_tta_never_reached():
    r = _result([0.3, 0.4])
    assert r.time_to_accuracy(0.9) is None


def test_tta_not_fooled_by_regression():
    """The first crossing counts even if accuracy later dips below."""
    r = _result([0.3, 0.7, 0.4, 0.8])
    assert r.time_to_accuracy(0.6) == pytest.approx(4.0)


def test_tta_invalid_threshold():
    with pytest.raises(ValueError):
        _result([0.5]).time_to_accuracy(1.5)


# ----------------------------------------------------------------------
# The accuracy / speed trade-off of the imp-ratio and substitution knobs
# ----------------------------------------------------------------------
#: §6.5: "the Imp-Ratio is adjustable, allowing users to prioritize
#: accuracy with a higher ratio or speed with a lower one."
GOALS = {
    "accuracy": dict(r_start=0.9, r_end=0.9, elastic=False,
                     hom_neighbor_limit=8, hom_radius_scale=0.5),
    "speed": dict(r_start=0.9, r_end=0.5, elastic=True,
                  hom_neighbor_limit=32, hom_radius_scale=0.9),
}


def test_goals_end_to_end_tradeoff():
    """The speed settings yield a higher hit ratio than the accuracy ones."""
    from repro.data.synthetic import make_clustered_dataset, train_test_split
    from repro.nn.models import build_model
    from repro.train.trainer import Trainer, TrainerConfig

    ds = make_clustered_dataset(600, n_classes=6, dim=16, rng=0)
    train, test = train_test_split(ds, rng=1)
    results = {}
    for goal in ["accuracy", "speed"]:
        model = build_model("resnet18", train.dim, train.num_classes, rng=2)
        policy = SpiderCachePolicy(rng=3, **GOALS[goal])
        results[goal] = Trainer(model, train, test, policy,
                                TrainerConfig(epochs=8, batch_size=64)).run()
    assert results["speed"].mean_hit_ratio > results["accuracy"].mean_hit_ratio
    assert results["speed"].total_time_s < results["accuracy"].total_time_s
