"""Knob contract: every ``TrainerConfig`` field is honoured or rejected.

``CONTRACT`` names, per field, a non-default value and what it must do at
each topology in ``tests/train/topologies.py``: move a named observable
(compared with the same topology's default run where "moves" needs a
reference), or make construction raise ``ValueError``. A field without a
row fails; so does a topology where the value is accepted and moves
nothing. The two policy-side knobs the loop reads (``backprop_mask``,
``is_ms_per_batch``) get the same treatment below the table.
"""

import dataclasses
from typing import Callable, Tuple

import numpy as np
import pytest

from repro.baselines.icache import ICacheImpPolicy
from repro.core.policy import SpiderCachePolicy
from repro.train.trainer import TrainerConfig
from tests.train import topologies
from tests.train.topologies import TOPOLOGIES

BASE = TrainerConfig(epochs=3, batch_size=32)
SHARDED = ("dp2-shared-2shards",)
UNSHARDED = tuple(t for t in TOPOLOGIES if t not in SHARDED)


@dataclasses.dataclass
class Row:
    """One field's contract: ``value`` is honoured — ``moves(run, base)`` is
    true, ``run``/``base`` being ``(trainer, result)`` of the run with the
    value and of the default run — or rejected at ``rejected_at``."""

    value: object
    moves: Callable
    rejected_at: Tuple[str, ...] = ()


def _cache(trainer):
    return trainer.workers[0].policy.cache


CONTRACT = {
    "epochs": Row(4, lambda run, base: len(run[1].epochs) == 4),
    "batch_size": Row(16, lambda run, base: all(
        w.loader.batch_size == 16 // len(run[0].workers) for w in run[0].workers
    )),
    # Selects the shard tier's transport; without one there is nothing to select.
    "clock_mode": Row(
        "real", lambda run, base: _cache(run[0]).transport.name == "real",
        rejected_at=UNSHARDED,
    ),
    "lr": Row(0.01, lambda run, base: all(
        w.optimizer.current_lr == 0.01 for w in run[0].workers
    )),
    # Cosine over 3 epochs: the last epoch trains at a quarter of the base lr.
    "lr_schedule": Row("cosine", lambda run, base: all(
        w.optimizer.current_lr == pytest.approx(BASE.lr / 4) for w in run[0].workers
    )),
    "shared_cache": Row(
        True,
        lambda run, base: len({id(w.policy) for w in run[0].workers}) == 1
        and run[0].workers[0].policy.ctx.dataset is run[0].train_set,
        rejected_at=("trainer",),
    ),
    "cache_shards": Row(
        3, lambda run, base: _cache(run[0]).ring.n_shards == 3,
        rejected_at=("trainer", "dp1", "dp2-per-worker"),
    ),
    # Without a shard tier there are no RPCs to configure.
    "rpc_deadline_s": Row(
        0.5, lambda run, base: _cache(run[0]).transport.deadline_s == 0.5,
        rejected_at=UNSHARDED,
    ),
    "rpc_retry_budget": Row(
        5, lambda run, base: _cache(run[0]).retry.max_attempts == 5,
        rejected_at=UNSHARDED,
    ),
}


@pytest.fixture(scope="module")
def data():
    return topologies.dataset()


@pytest.fixture(scope="module")
def default_runs(data):
    """Per topology, the default-config run "moves" is measured against."""
    runs = {}

    def get(topology):
        if topology not in runs:
            trainer = topologies.build(topology, data, BASE)
            runs[topology] = (trainer, trainer.run())
        return runs[topology]

    return get


def test_every_field_has_a_row():
    fields = {f.name for f in dataclasses.fields(TrainerConfig)}
    assert set(CONTRACT) == fields
    for name, row in CONTRACT.items():
        assert getattr(TrainerConfig(), name) != row.value, name


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(TrainerConfig)])
def test_field_is_honoured_or_rejected(name, topology, data, default_runs):
    assert name in CONTRACT, f"TrainerConfig.{name} has no contract row"
    row = CONTRACT[name]
    knob = {name: row.value}
    if topology in row.rejected_at:
        with pytest.raises(ValueError):
            topologies.build(topology, data, BASE, **knob)
        return
    trainer = topologies.build(topology, data, BASE, **knob)
    run = (trainer, trainer.run())
    assert row.moves(run, default_runs(topology)), (
        f"{name}={row.value!r} was accepted at {topology} and moved nothing"
    )


def test_unknown_clock_mode_is_rejected_everywhere(data):
    for topology in TOPOLOGIES:
        with pytest.raises(ValueError, match="clock_mode must be"):
            topologies.build(topology, data, BASE, clock_mode="bogus")


@pytest.mark.parametrize("epochs", [0, -1])
def test_epochs_below_one_is_rejected_everywhere(epochs, data):
    for topology in TOPOLOGIES:
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            topologies.build(topology, data, BASE, epochs=epochs)


# -- the policy-side knobs the loop reads ---------------------------------
class MaskedSlowISPolicy(SpiderCachePolicy):
    """SpiderCache (so the sharded tier can host it) with iCache's selective
    backprop and an IS cost too long for the overlap window to hide."""

    skip_quantile = 0.3
    backprop_mask = ICacheImpPolicy.backprop_mask
    is_ms_per_batch = 100.0


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_policy_mask_and_is_cost_reach_the_stage_times(topology, data, default_runs):
    trainer = topologies.build(topology, data, BASE, policy_cls=MaskedSlowISPolicy)
    result = trainer.run()
    _, base = default_runs(topology)
    stage1, stage2 = 42.0, 35.0  # resnet18
    for e, e0 in zip(result.epochs, base.epochs):
        # Selective backprop trains ~70 % of each batch: Stage 2 shrinks.
        assert e.compute_s < 0.95 * e0.compute_s
        assert e.compute_s == pytest.approx(
            e0.compute_s * (stage1 + 0.7 * stage2) / (stage1 + stage2), rel=0.05
        )
        # 100 ms of IS against a 77 ms stage1+stage2 window: 23 ms show.
        assert e.is_visible_s > 0 and e0.is_visible_s == 0
    clock = trainer.workers[-1].clock
    assert clock.stage_seconds("is_visible") == pytest.approx(
        result.stage_totals()["is_visible_s"]
    )
    assert np.isfinite(result.final_accuracy)
