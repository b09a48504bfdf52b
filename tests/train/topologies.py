"""The five trainer topologies every cross-topology test runs over.

``Trainer`` and ``DataParallelTrainer`` are builders over one epoch loop
(``repro.train.trainer.EpochRunner``); tests that hold for "any topology"
take ``TOPOLOGIES`` as their parameter list and build through
:func:`build`, so a new topology is one more row here.
"""

import dataclasses

from repro.core.policy import SpiderCachePolicy
from repro.data.synthetic import make_clustered_dataset, train_test_split
from repro.nn.models import build_model
from repro.train.data_parallel import DataParallelTrainer
from repro.train.trainer import Trainer, TrainerConfig

#: name -> (world_size, or None for the plain ``Trainer``; the
#: ``TrainerConfig`` fields that select the cache topology).
TOPOLOGIES = {
    "trainer": (None, {}),
    "dp1": (1, {}),
    "dp2-per-worker": (2, {}),
    "dp2-shared": (2, {"shared_cache": True}),
    "dp2-shared-2shards": (2, {"shared_cache": True, "cache_shards": 2}),
}


def dataset():
    """Small clustered split: 180 training samples (uneven across 2 ranks'
    batches, so short tail steps are exercised), 60 test samples."""
    ds = make_clustered_dataset(240, n_classes=4, dim=16, rng=0)
    return train_test_split(ds, test_fraction=0.25, rng=1)


def build(
    topology, data, config=None, policy_cls=SpiderCachePolicy, observer=None,
    **overrides,
):
    """The trainer for ``topology`` over ``data``: ``config`` with the
    topology's fields set, then ``overrides`` (``TrainerConfig`` fields);
    ``observer`` observes the run."""
    world_size, topo_fields = TOPOLOGIES[topology]
    config = dataclasses.replace(
        config or TrainerConfig(epochs=2, batch_size=32),
        **{**topo_fields, **overrides},
    )
    train, test = data

    def make_model():
        return build_model("resnet18", train.dim, train.num_classes, rng=2)

    def make_policy(rank=0):
        seed = 3 if config.shared_cache else 3 + rank
        return policy_cls(cache_fraction=0.25, rng=seed)

    if world_size is None:
        return Trainer(
            make_model(), train, test, make_policy(), config, rng=4,
            observer=observer,
        )
    return DataParallelTrainer(
        make_model, train, test, make_policy, world_size=world_size,
        config=config, observer=observer, rng=4,
    )
