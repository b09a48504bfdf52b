"""Fault-model tests: outage/brownout windows and the store enforcing them."""

import numpy as np
import pytest

from repro import cli
from repro.baselines.registry import POLICIES
from repro.data.registry import make_dataset
from repro.data.synthetic import train_test_split
from repro.nn.models import build_model
from repro.obs.observer import Observer
from repro.obs.report import TRACE_FILE, write_run_artifacts
from repro.obs.trace import JsonlRecorder
from repro.resilience.faults import BrownoutWindow, FaultPlan, OutageWindow
from repro.storage.backends import RemoteStore
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency
from repro.train.trainer import Trainer, TrainerConfig


def _store(n=20, base_s=1e-3, plan=None, item_nbytes=512):
    store = RemoteStore(
        np.arange(float(n))[:, None], item_nbytes=item_nbytes, clock=SimClock()
    )
    store.latency = ConstantLatency(base_s=base_s)
    store.fault_plan = plan
    return store


def test_window_validation():
    with pytest.raises(ValueError):
        OutageWindow(-1.0, 2.0)
    with pytest.raises(ValueError):
        OutageWindow(3.0, 2.0)
    with pytest.raises(ValueError):
        BrownoutWindow(0.0, 1.0, latency_multiplier=0.5)


def test_window_active_is_half_open_interval():
    w = OutageWindow(1.0, 2.0)
    assert not w.active(0.999)
    assert w.active(1.0)
    assert w.active(1.999)
    assert not w.active(2.0)


def test_plan_latency_multiplier_composes():
    plan = FaultPlan(brownouts=[
        BrownoutWindow(0.0, 10.0, 2.0),
        BrownoutWindow(5.0, 15.0, 3.0),
    ])
    assert plan.latency_multiplier(1.0) == pytest.approx(2.0)
    assert plan.latency_multiplier(7.0) == pytest.approx(6.0)
    assert plan.latency_multiplier(12.0) == pytest.approx(3.0)
    assert plan.latency_multiplier(20.0) == pytest.approx(1.0)


def test_outage_answers_none_and_counts():
    store = _store(plan=FaultPlan(outages=[OutageWindow(0.0, 1.0)]))
    assert store.get(0) is None
    assert store.get(1) is None
    assert store.outage_failures == 2
    assert store.fetch_count == 0  # no read was charged
    assert store.clock.total_seconds == 0.0

    # Past the window the store works again.
    store.clock.advance("data_load", 1.0)
    np.testing.assert_array_equal(store.get(2), store.peek(2))
    assert store.fetch_count == 1


def test_brownout_charges_extra_latency():
    clean = _store(base_s=1e-3)
    clean.get(0)
    single = clean.clock.stage_seconds("data_load")  # one normal fetch

    store = _store(
        base_s=1e-3, plan=FaultPlan(brownouts=[BrownoutWindow(0.0, 100.0, 4.0)])
    )
    store.get(0)
    charged = store.clock.stage_seconds("data_load")
    # 4x multiplier: the normal fetch charge plus 3x extra.
    assert charged == pytest.approx(4 * single, rel=1e-9)
    assert store.brownout_extra_s == pytest.approx(3 * single, rel=1e-9)


def test_brownout_outside_window_is_free():
    store = _store(
        base_s=1e-3, plan=FaultPlan(brownouts=[BrownoutWindow(10.0, 20.0, 4.0)])
    )
    clean = _store(base_s=1e-3)
    clean.get(0)
    store.get(0)
    assert store.brownout_extra_s == 0.0
    assert store.clock.stage_seconds("data_load") == pytest.approx(
        clean.clock.stage_seconds("data_load"), rel=1e-12
    )


def test_fault_counters_are_store_attributes():
    # ~1 ms fetches: two fail in the outage, then a brownout slows four.
    plan = FaultPlan(
        outages=[OutageWindow(0.0, 0.001)],
        brownouts=[BrownoutWindow(0.002, 0.012, latency_multiplier=3.0)],
    )
    store = _store(n=50, plan=plan, item_nbytes=1024)
    for _ in range(2):
        assert store.get(0) is None
    store.clock.advance("compute", 0.002)
    for i in range(10):
        store.get(i)
    assert store.fault_plan is plan
    assert store.outage_failures == 2
    # Four fetches start inside the window, each charged 2x extra.
    single = ConstantLatency(base_s=1e-3).sample(1024)
    assert store.brownout_extra_s == pytest.approx(4 * 2 * single, rel=1e-9)
    assert store.fetch_count == 10
    assert store.bytes_fetched == 10 * 1024


def test_traced_brownout_run_reconciles(tmp_path, capsys):
    """A brownout's extra latency is charged and traced with the fetch, so
    the report's trace-vs-epoch check holds under a whole-run brownout."""
    data = make_dataset("cifar10-like", rng=0, n_samples=400)
    train, test = train_test_split(data, test_fraction=0.25, rng=1)
    recorder = JsonlRecorder(tmp_path / TRACE_FILE)
    trainer = Trainer(
        build_model("resnet18", train.dim, train.num_classes, rng=2),
        train, test, POLICIES["spidercache"](0.2, 3),
        TrainerConfig(epochs=2, batch_size=64),
        observer=Observer(recorder, span_seed=0),
    )
    trainer.store.fault_plan = FaultPlan(
        brownouts=[BrownoutWindow(0.0, 1e9, 4.0)]
    )
    result = trainer.run()
    recorder.close()
    write_run_artifacts(result, tmp_path)
    assert trainer.store.brownout_extra_s > 0
    assert cli.main(["report", str(tmp_path)]) == 0
    assert "trace vs per-epoch metrics: OK over 2 epoch(s)\n" in capsys.readouterr().out
