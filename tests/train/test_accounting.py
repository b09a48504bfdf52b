"""Stage-accounting invariants for clean, prefetching and fault-recovered
runs.

The per-epoch identity (``epoch_time_s`` is exactly the sum of its five
stage components) and the run-level consistency between
``TrainResult.stage_totals()`` and the trainers' ``SimClock`` breakdown
are what every time-related figure rests on — they must hold at every
topology the one epoch loop runs, with the remote reads an importance
prefetch makes between epochs, and for a ``ResilientTrainer`` that
restored mid-epoch.
"""

import functools

import pytest

from repro.core.policy import SpiderCachePolicy
from repro.nn.models import build_model
from repro.obs.observer import Observer
from repro.obs.report import TRACE_FILE, render_report, write_run_artifacts
from repro.obs.trace import JsonlRecorder
from repro.resilience.preemption import PreemptionSchedule
from repro.resilience.trainer import ResilientTrainer
from repro.storage.backends import RemoteStore
from repro.train.metrics import HIT_LATENCY_S, IO_WORKERS
from repro.train.trainer import RPC_STAGE, Trainer, TrainerConfig
from tests.train import topologies

PREFETCHING = functools.partial(SpiderCachePolicy, prefetch_fraction=0.5)


def _build(cls=Trainer, epochs=3, policy_cls=SpiderCachePolicy, **kw):
    train, test = topologies.dataset()
    model = build_model("resnet18", train.dim, train.num_classes, rng=2)
    policy = policy_cls(cache_fraction=0.25, rng=3)
    cfg = TrainerConfig(epochs=epochs, batch_size=32)
    return cls(model, train, test, policy, cfg, **kw)


def _assert_invariants(trainer, result):
    workers = trainer.workers
    k = len(workers)
    for e in result.epochs:
        # Per-epoch identity: the reported epoch time is exactly its parts.
        assert e.epoch_time_s == pytest.approx(
            e.data_load_s + e.compute_s + e.is_visible_s + e.preprocess_s
            + e.comm_s,
            abs=1e-12,
        )
    totals = result.stage_totals()
    assert set(totals) == {
        "data_load_s", "compute_s", "is_visible_s", "preprocess_s", "comm_s"
    }
    # Run totals reconcile with every replica's simulated clock: compute
    # and IS are charged per step as-is, and nothing charges preprocess.
    for w in workers:
        for stage in ("compute", "is_visible", "preprocess"):
            assert totals[f"{stage}_s"] == pytest.approx(
                w.clock.stage_seconds(stage), abs=1e-9
            ), (w.rank, stage)
    # Raw data_load divides over the io_workers plus one hit latency per
    # cache serve; ranks load in parallel, the slowest clock sets the pace.
    per_clock = {}
    for w in workers:
        stats = w.policy.stats()
        hits = stats.hits + stats.substitute_hits + stats.degraded_serves
        per_clock[id(w.clock)] = (
            w.clock.stage_seconds(RemoteStore.STAGE) / IO_WORKERS
            + hits * HIT_LATENCY_S
            + w.clock.stage_seconds(RPC_STAGE)
        )
    loads = list(per_clock.values())
    if len(loads) == 1:
        assert totals["data_load_s"] == pytest.approx(loads[0] / k, abs=1e-9)
    else:  # per-epoch straggler max: between the slowest clock and the sum
        assert max(loads) - 1e-9 <= totals["data_load_s"] <= sum(loads) + 1e-9
    assert (totals["comm_s"] > 0) == (k > 1)
    # Total time identity at the run level.
    assert result.total_time_s == pytest.approx(
        sum(totals.values()), abs=1e-9
    )


@pytest.mark.parametrize("topology", topologies.TOPOLOGIES)
def test_stage_accounting_invariants_at_every_topology(topology):
    """With an importance prefetch: its reads count in the epoch they warm."""
    trainer = topologies.build(
        topology, topologies.dataset(), TrainerConfig(epochs=3, batch_size=32),
        policy_cls=PREFETCHING,
    )
    result = trainer.run()
    assert all(w.policy.prefetch_count > 0 for w in trainer.workers)
    assert all(e.score_std is not None for e in result.epochs)
    _assert_invariants(trainer, result)


def test_trainer_stage_accounting_invariants():
    trainer = _build(epochs=3)
    result = trainer.run()
    _assert_invariants(trainer, result)


def test_traced_prefetch_run_reconciles_with_its_report(tmp_path):
    """The report stamps a ``prefetch`` row with the epoch it warms; the
    epoch's metrics must count its remote time there too."""
    recorder = JsonlRecorder(tmp_path / TRACE_FILE)
    trainer = _build(
        epochs=3, policy_cls=PREFETCHING, observer=Observer(recorder=recorder)
    )
    result = trainer.run()
    recorder.close()
    write_run_artifacts(result, tmp_path)
    assert trainer.policy.prefetch_count > 0
    assert "trace vs per-epoch metrics: OK over 3 epoch(s)" in render_report(tmp_path)


@pytest.mark.resilience
def test_resilient_trainer_resumed_run_keeps_invariants(tmp_path):
    trainer = _build(
        ResilientTrainer,
        epochs=3,
        checkpoint_dir=tmp_path,
        checkpoint_every_batches=3,
        preemptions=PreemptionSchedule(at=[(1, 2)]),
    )
    result = trainer.run()
    assert trainer.recovery.restarts == 1
    assert len(result.epochs) == 3
    _assert_invariants(trainer, result)


@pytest.mark.resilience
def test_resumed_run_metrics_match_uninterrupted(tmp_path):
    clean = _build(epochs=3)
    clean_result = clean.run()
    faulted = _build(
        ResilientTrainer,
        epochs=3,
        checkpoint_dir=tmp_path,
        checkpoint_every_batches=3,
        preemptions=PreemptionSchedule(at=[(1, 2)]),
    )
    faulted_result = faulted.run()
    for ce, fe in zip(clean_result.epochs, faulted_result.epochs):
        assert fe.epoch_time_s == pytest.approx(ce.epoch_time_s, abs=1e-9)
        assert fe.data_load_s == pytest.approx(ce.data_load_s, abs=1e-9)
        assert fe.hit_ratio == pytest.approx(ce.hit_ratio, abs=1e-12)
        assert fe.train_loss == pytest.approx(ce.train_loss, abs=1e-12)
