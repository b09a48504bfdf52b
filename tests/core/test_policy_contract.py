"""Knob contract: every ``SpiderCachePolicy`` parameter reaches a run.

``CONTRACT`` names, per ``__init__`` parameter, a non-default value and the
observable it moves against the default run of one small ``Trainer``. A
parameter without a row fails. A parameter that cannot move a short
fault-free run names the condition that keeps it inert; its row checks that
the condition held, that the run is the default's, and that the value
reached the component it configures — and, in a second run long enough
for the condition to lapse (``LONG``), that the value moves its
observable. Out-of-range values are
``test_policy_knobs.py::test_invalid_knobs``'s.
"""

import dataclasses
import inspect
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest

from repro.ann.hnsw import HNSWIndex
from repro.core.graph_is import DEFAULT_LAM
from repro.core.policy import SpiderCachePolicy
from repro.nn.models import build_model
from repro.train.trainer import Trainer, TrainerConfig
from tests.train import topologies

CONFIG = TrainerConfig(epochs=3, batch_size=32)
#: Long enough for the importance monitor to activate (at epoch 4).
LONG = TrainerConfig(epochs=8, batch_size=32)
PARAMETERS = [
    name for name in inspect.signature(SpiderCachePolicy.__init__).parameters
    if name != "self"
]


class Run(NamedTuple):
    policy: SpiderCachePolicy
    result: object


@dataclasses.dataclass
class Inert:
    """Why a value cannot move a run: ``condition`` names it, ``holds(run,
    base)`` checks it, ``reached(run)`` that the value got where it would
    act once the condition lapses, and ``moves(run, base)`` that it acts
    then (both runs ``LONG``)."""

    condition: str
    holds: Callable[[Run, Run], bool]
    reached: Callable[[Run], bool]
    moves: Callable[[Run, Run], bool]


@dataclasses.dataclass
class Row:
    """One parameter's contract: ``value`` makes ``moves(run, base)`` true
    (``run`` with the value, ``base`` the default run), or is inert as
    ``inert`` says."""

    value: object
    moves: Optional[Callable[[Run, Run], bool]] = None
    inert: Optional[Inert] = None


def _scores(run):
    return run.policy.score_table.scores


def _scores_move(run, base):
    return not np.array_equal(_scores(run), _scores(base))


def _radius_and_scores_move(run, base):
    radius_moved = run.policy.scorer.radius != base.policy.scorer.radius
    return radius_moved and _scores_move(run, base)


def _covered(run):
    hom = run.policy.cache.homophily
    return sum(len(v) for v in hom._items.values())


def _monitor_inactive(run, base):
    return all(
        r.policy.manager.importance_monitor.activation_epoch is None
        for r in (run, base)
    )


MONITOR_INACTIVE = "the importance monitor has not activated (Eq. 5's beta is 0)"


def _imp_ratio(run):
    return run.policy.cache.imp_ratio


CONTRACT = {
    "cache_fraction": Row(
        0.5,
        lambda run, base: run.policy.cache.total_capacity
        > base.policy.cache.total_capacity
        and run.result.mean_hit_ratio > base.result.mean_hit_ratio,
    ),
    "lam": Row(DEFAULT_LAM / 2, _radius_and_scores_move),
    "alpha": Row(0.5, _radius_and_scores_move),
    "neighbormax": Row(5, _scores_move),
    "r_start": Row(0.85, lambda run, base: (
        run.policy.cache.importance.capacity < base.policy.cache.importance.capacity
    )),
    "r_end": Row(0.5, inert=Inert(
        MONITOR_INACTIVE, _monitor_inactive,
        lambda run: run.policy.manager.controller.r_end == 0.5,
        lambda run, base: _imp_ratio(run) < _imp_ratio(base) < 0.9,
    )),
    "elastic": Row(False, inert=Inert(
        MONITOR_INACTIVE, _monitor_inactive,
        lambda run: run.policy.manager.history == [],
        lambda run, base: _imp_ratio(run) == 0.9 > _imp_ratio(base),
    )),
    "backend": Row("hnsw", lambda run, base: (
        isinstance(run.policy.scorer.index, HNSWIndex)
        and not isinstance(base.policy.scorer.index, HNSWIndex)
    )),
    "hom_neighbor_limit": Row(1, lambda run, base: _covered(run) < _covered(base)),
    "hom_same_class_only": Row(
        False, lambda run, base: _covered(run) != _covered(base)
    ),
    "hom_radius_scale": Row(0.1, lambda run, base: _covered(run) < _covered(base)),
    "prefetch_fraction": Row(
        0.5,
        lambda run, base: run.policy.prefetch_count > 0
        and base.policy.prefetch_count == 0,
    ),
    "rng": Row(7, _scores_move),
}


@pytest.fixture(scope="module")
def data():
    return topologies.dataset()


def _run(data, config=CONFIG, **knobs):
    train, test = data
    model = build_model("resnet18", train.dim, train.num_classes, rng=2)
    policy = SpiderCachePolicy(**{"cache_fraction": 0.25, "rng": 3, **knobs})
    result = Trainer(model, train, test, policy, config, rng=4).run()
    return Run(policy, result)


@pytest.fixture(scope="module")
def base(data):
    return _run(data)


@pytest.fixture(scope="module")
def long_base(data):
    return _run(data, config=LONG)


def test_every_parameter_has_a_row():
    assert set(CONTRACT) == set(PARAMETERS)
    defaults = inspect.signature(SpiderCachePolicy.__init__).parameters
    for name, row in CONTRACT.items():
        assert row.value != defaults[name].default, name
        assert (row.moves is None) != (row.inert is None), name


@pytest.mark.parametrize("name", PARAMETERS)
def test_parameter_is_honoured(name, data, base):
    assert name in CONTRACT, f"SpiderCachePolicy({name}=) has no contract row"
    row = CONTRACT[name]
    run = _run(data, **{name: row.value})
    if row.inert is None:
        assert row.moves(run, base), f"{name}={row.value!r} moved nothing"
        return
    assert row.inert.holds(run, base), f"{name}: {row.inert.condition} no longer holds"
    assert run.result.epochs == base.result.epochs
    assert np.array_equal(_scores(run), _scores(base))
    assert row.inert.reached(run), f"{name}={row.value!r} never reached its component"


@pytest.mark.parametrize(
    "name", [name for name, row in CONTRACT.items() if row.inert is not None]
)
def test_inert_parameter_moves_once_its_condition_lapses(name, data, long_base):
    row = CONTRACT[name]
    run = _run(data, config=LONG, **{name: row.value})
    assert long_base.policy.manager.importance_monitor.activation_epoch is not None
    assert not row.inert.holds(run, long_base), f"{name}: {row.inert.condition}"
    assert row.inert.moves(run, long_base), f"{name}={row.value!r} moved nothing"
