"""Per-item size support in RemoteStore."""

import numpy as np
import pytest

from repro.storage.backends import RemoteStore
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency


def _store(sizes=None):
    return RemoteStore(
        np.arange(10.0)[:, None],
        item_nbytes=1000,
        latency=ConstantLatency(base_s=0.0, bandwidth_bps=1e3),  # 1B = 1ms
        clock=SimClock(),
        item_sizes=sizes,
    )


def test_uniform_size_default():
    s = _store()
    assert s.size_of(0) == 1000
    s.get(0)
    assert s.bytes_fetched == 1000
    assert s.clock.total_seconds == pytest.approx(1.0)


def test_per_item_sizes_drive_latency():
    sizes = np.arange(10) * 100  # 0, 100, ... 900 bytes
    s = _store(sizes)
    assert s.size_of(3) == 300
    s.get(3)
    assert s.bytes_fetched == 300
    assert s.clock.total_seconds == pytest.approx(0.3)
    s.get(9)
    assert s.bytes_fetched == 1200


def test_item_sizes_validation():
    with pytest.raises(ValueError):
        _store(np.ones(5))  # wrong length
    with pytest.raises(ValueError):
        _store(-np.ones(10))


def test_heterogeneous_training_run():
    """End to end: a store with 10x size spread still trains normally and
    bytes_fetched reflects the skew."""
    from repro.baselines.baseline import CoorDLPolicy
    from repro.data.synthetic import make_clustered_dataset, train_test_split
    from repro.nn.models import build_model
    from repro.train.trainer import Trainer, TrainerConfig

    ds = make_clustered_dataset(200, n_classes=4, dim=8, rng=0)
    train, test = train_test_split(ds, rng=1)
    rng = np.random.default_rng(2)
    sizes = rng.integers(10 * 1024, 110 * 1024, len(train))
    model = build_model("resnet18", train.dim, train.num_classes, rng=3)
    trainer = Trainer(model, train, test, CoorDLPolicy(cache_fraction=0.3, rng=4),
                      TrainerConfig(epochs=2, batch_size=64))
    trainer.store.item_sizes = sizes
    res = trainer.run()
    assert res.final_accuracy > 0.4
    assert trainer.store.bytes_fetched > 0
