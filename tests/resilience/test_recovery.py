"""Exact-recovery tests: preempted runs resume bit-for-bit.

The acceptance property: a run killed mid-epoch and resumed from its
checkpoint produces the *identical* parameter trajectory, cache contents,
epoch metrics, and simulated clock as a run that was never interrupted.
"""

import numpy as np
import pytest

from repro.obs.observer import Observer
from repro.obs.trace import InMemoryRecorder
from repro.resilience.preemption import PreemptionError, PreemptionSchedule
from repro.resilience.state import load_state, save_state
from repro.resilience.trainer import KEEP_LAST, ResilientTrainer
from repro.train.trainer import Trainer
from tests.resilience.conftest import POLICY_CASES


def _params_equal(a, b):
    sa, sb = a.state_dict(), b.state_dict()
    assert sa.keys() == sb.keys()
    return all(np.array_equal(sa[k], sb[k]) for k in sa)


# ---------------------------------------------------------------------------
# State serializer


def test_save_state_round_trips_nested_trees(tmp_path):
    state = {
        "arrays": {"f64": np.linspace(0, 1, 7), "i64": np.arange(5),
                   "bool": np.array([True, False])},
        "rng_like": {"state": {"state": 2 ** 100 + 7, "inc": 2 ** 90 + 3}},
        "list": [1, 2.5, "three", None, {"deep": np.ones((2, 3))}],
        "tuple": (1, 2, "x"),
        "scalars": {"none": None, "flag": True, "f": 0.25},
    }
    path = save_state(tmp_path / "s.npz", state)
    back = load_state(path)
    np.testing.assert_array_equal(back["arrays"]["f64"], state["arrays"]["f64"])
    assert back["arrays"]["i64"].dtype == np.int64
    assert back["arrays"]["bool"].dtype == np.bool_
    # Big ints (PCG64 carries 128-bit words) survive exactly.
    assert back["rng_like"]["state"]["state"] == 2 ** 100 + 7
    assert back["list"][3] is None
    np.testing.assert_array_equal(back["list"][4]["deep"], np.ones((2, 3)))
    assert back["tuple"] == (1, 2, "x")
    assert back["scalars"] == state["scalars"]


def test_save_state_rejects_unserializable(tmp_path):
    with pytest.raises(TypeError):
        save_state(tmp_path / "bad.npz", {"f": lambda: None})
    with pytest.raises(TypeError):
        save_state(tmp_path / "bad.npz", {1: "non-string key"})


# ---------------------------------------------------------------------------
# Preemption schedule


def test_schedule_fires_each_point_once():
    sched = PreemptionSchedule(at=[(1, 3)])
    sched.check(0, 3, 0.0)  # wrong epoch: nothing
    with pytest.raises(PreemptionError) as ei:
        sched.check(1, 3, 2.5)
    assert (ei.value.epoch, ei.value.batch) == (1, 3)
    assert ei.value.at_s == pytest.approx(2.5)
    sched.check(1, 3, 2.6)  # replay passes through
    assert sched.fired == sched.total == 1


# ---------------------------------------------------------------------------
# Acceptance: exact recovery


#: Every registry policy, plus SpiderCache on the HNSW backend.
EVERY_POLICY = pytest.mark.parametrize("policy_name", sorted(POLICY_CASES))


def _assert_same_state(a, b, path="policy"):
    """Two ``state_dict`` trees are equal leaf for leaf (arrays by value
    and dtype): caches in eviction order, score tables, RNG streams."""
    assert type(a) is type(b), path
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for k in a:
            _assert_same_state(a[k], b[k], f"{path}.{k}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same_state(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and np.array_equal(a, b), path
    else:
        assert a == b, path


@EVERY_POLICY
def test_exact_recovery_acceptance(build_run, tmp_path, policy_name):
    """Preempted twice mid-run; trajectory identical to uninterrupted."""
    base, base_model, base_policy = build_run(Trainer, epochs=3, policy=policy_name)
    r0 = base.run()

    trainer, model, policy = build_run(
        ResilientTrainer, epochs=3, policy=policy_name,
        checkpoint_dir=tmp_path / "ckpts",
        checkpoint_every_batches=3,
        preemptions=PreemptionSchedule(at=[(1, 2), (2, 4)]),
    )
    r1 = trainer.run()

    assert trainer.recovery.restarts == 2
    assert trainer.recovery.replayed_batches > 0
    assert trainer.recovery.checkpoints_written > 0
    # Parameter trajectory: bit-for-bit.
    assert _params_equal(base_model, model)
    # Epoch metrics, the clock, the cache counters.
    assert r0.epochs == r1.epochs
    assert base.clock.state_dict() == trainer.clock.state_dict()
    assert base_policy.stats() == policy.stats()
    # Every decision the policy carries forward: cache contents in eviction
    # order (heap layout, recency, frequency buckets, random-replacement
    # slots), payloads, score table, sampling RNG.
    _assert_same_state(base_policy.state_dict(), policy.state_dict())


def test_resumed_run_exports_the_uninterrupted_runs_counts(build_run, tmp_path):
    """The counts a component keeps are checkpointed with it, so the
    metrics export of a twice-preempted run reads what an uninterrupted
    run reads — replayed batches are not counted twice."""
    base_obs = Observer(InMemoryRecorder())
    resumed_obs = Observer(InMemoryRecorder())
    build_run(Trainer, observer=base_obs)[0].run()
    trainer = build_run(
        ResilientTrainer, observer=resumed_obs,
        checkpoint_dir=tmp_path / "ckpts", checkpoint_every_batches=3,
        preemptions=PreemptionSchedule(at=[(1, 2), (2, 4)]),
    )[0]
    trainer.run()
    assert trainer.recovery.replayed_batches > 0

    def owner_counts(obs):
        live = obs.metrics.snapshot()["counters"]
        return {k: v for k, v in obs.snapshot()["counters"].items()
                if k not in live}

    want = owner_counts(base_obs)
    assert {"cache.fetches", "store.fetches", "importance.admitted"} <= set(want)
    assert owner_counts(resumed_obs) == want


@EVERY_POLICY
def test_fresh_process_resume_is_exact(build_run, tmp_path, policy_name):
    """Kill the process (max_restarts=0), resume in a fresh trainer."""
    base, base_model, base_policy = build_run(Trainer, epochs=3, policy=policy_name)
    r0 = base.run()

    first, _, _ = build_run(
        ResilientTrainer, epochs=3, policy=policy_name,
        checkpoint_dir=tmp_path / "ckpts",
        checkpoint_every_batches=4,
        preemptions=PreemptionSchedule(at=[(1, 5)]),
        max_restarts=0,
    )
    with pytest.raises(PreemptionError):
        first.run()

    second, model, policy = build_run(
        ResilientTrainer, epochs=3, policy=policy_name,
        checkpoint_dir=tmp_path / "ckpts",
        checkpoint_every_batches=4,
        resume=True,
    )
    r2 = second.run()
    assert _params_equal(base_model, model)
    assert r0.epochs == r2.epochs
    assert base.clock.state_dict() == second.clock.state_dict()
    assert base_policy.stats() == policy.stats()
    _assert_same_state(base_policy.state_dict(), policy.state_dict())


def test_restart_penalty_charged_to_recovery_stage(build_run, tmp_path):
    trainer, _, _ = build_run(
        ResilientTrainer, epochs=2,
        checkpoint_dir=tmp_path / "ckpts",
        checkpoint_every_batches=3,
        preemptions=PreemptionSchedule(at=[(1, 1)]),
        restart_penalty_s=7.5,
    )
    trainer.run()
    assert trainer.recovery.restarts == 1
    assert trainer.clock.stage_seconds("recovery") == pytest.approx(7.5)
    # The penalty is recovery overhead, not pipeline time: epoch metrics
    # must not absorb it.
    assert trainer.recovery.lost_s >= 0.0


def test_checkpoint_pruning_keeps_last_n(build_run, tmp_path):
    trainer, _, _ = build_run(
        ResilientTrainer, epochs=2,
        checkpoint_dir=tmp_path / "ckpts",
        checkpoint_every_batches=2,
    )
    trainer.run()
    kept = trainer.checkpoints()
    assert len(kept) == KEEP_LAST == 3
    assert trainer.recovery.checkpoints_written > KEEP_LAST


def test_max_restarts_reraises(build_run, tmp_path):
    trainer, _, _ = build_run(
        ResilientTrainer, epochs=2,
        checkpoint_dir=tmp_path / "ckpts",
        preemptions=PreemptionSchedule(at=[(0, 1)]),
        max_restarts=0,
    )
    with pytest.raises(PreemptionError):
        trainer.run()
