"""Shared builders for resilience tests: small, fully-deterministic runs."""

import pytest

from repro.baselines.registry import POLICIES
from repro.core.policy import SpiderCachePolicy
from repro.data.registry import make_dataset
from repro.data.synthetic import train_test_split
from repro.nn.models import build_model
from repro.train.trainer import Trainer, TrainerConfig

#: Every registry policy, plus SpiderCache on the paper's HNSW backend.
POLICY_CASES = {
    **POLICIES,
    "spidercache-hnsw": lambda frac, rng: SpiderCachePolicy(
        cache_fraction=frac, rng=rng, backend="hnsw"
    ),
}


@pytest.fixture
def build_run():
    """Factory for identically-seeded (trainer, model, policy) triples.

    Every call rebuilds the dataset, model, and policy from the same
    seeds, so two runs differ only in the trainer class / fault injection
    — the property the exact-recovery assertions need.
    """

    def _build(cls=Trainer, epochs=3, n_samples=160, batch_size=16,
               policy="spidercache", **kw):
        data = make_dataset("cifar10-like", rng=0, n_samples=n_samples)
        train, test = train_test_split(data, test_fraction=0.25, rng=1)
        model = build_model("resnet18", train.dim, train.num_classes, rng=2)
        built = POLICY_CASES[policy](0.2, 3)
        cfg = TrainerConfig(epochs=epochs, batch_size=batch_size)
        return cls(model, train, test, built, cfg, **kw), model, built

    return _build
