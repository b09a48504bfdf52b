"""TrainResult / EpochMetrics tests."""

import numpy as np
import pytest

from repro.train.metrics import EpochMetrics, TrainResult, data_load_seconds


def _em(epoch, acc=0.5, hit=0.3, load=1.0, compute=2.0, is_v=0.1):
    return EpochMetrics(
        epoch=epoch, train_loss=1.0, val_accuracy=acc, hit_ratio=hit,
        exact_hit_ratio=hit, substitute_ratio=0.0,
        data_load_s=load, compute_s=compute, is_visible_s=is_v,
        epoch_time_s=load + compute + is_v,
    )


def test_empty_run_raises():
    r = TrainResult("p", "m", "d")
    with pytest.raises(ValueError):
        _ = r.final_accuracy
    assert r.mean_hit_ratio == 0.0


def test_final_and_best_accuracy():
    r = TrainResult("p", "m", "d", epochs=[_em(0, 0.3), _em(1, 0.9), _em(2, 0.7)])
    assert r.final_accuracy == 0.7
    assert r.best_accuracy == 0.9


def test_total_time():
    r = TrainResult("p", "m", "d", epochs=[_em(0), _em(1)])
    assert r.total_time_s == pytest.approx(2 * 3.1)


def test_series_extraction():
    r = TrainResult("p", "m", "d", epochs=[_em(0, 0.1), _em(1, 0.2)])
    np.testing.assert_allclose(r.series("val_accuracy"), [0.1, 0.2])


def test_stage_totals_and_summary():
    r = TrainResult("p", "m", "d", epochs=[_em(0), _em(1)])
    st = r.stage_totals()
    assert st["data_load_s"] == 2.0
    assert st["compute_s"] == 4.0
    s = r.summary()
    assert s["final_accuracy"] == 0.5
    assert s["total_time_s"] == pytest.approx(6.2)
    assert s["mean_hit_ratio"] == pytest.approx(0.3)


def test_data_load_seconds_is_what_the_loop_and_the_report_both_use(monkeypatch):
    """Remote time shared by the loader processes plus the in-memory hit
    latency of every cache serve. ``EpochRunner._epoch_metrics`` (per
    clock) and ``aggregate_trace`` (per epoch) each report exactly what
    the formula returned them, and the two agree."""
    assert data_load_seconds(0.9, 2, 3, 1e-3) == pytest.approx(0.302, abs=1e-15)

    import repro.obs.report as report
    import repro.train.trainer as trainer
    from repro.core.policy import SpiderCachePolicy
    from repro.data.synthetic import make_clustered_dataset, train_test_split
    from repro.nn.models import build_model
    from repro.obs.observer import Observer
    from repro.obs.trace import InMemoryRecorder

    returned = {"loop": [], "report": []}

    def spy(caller):
        def formula(*args):
            value = data_load_seconds(*args)
            returned[caller].append(value)
            return value
        return formula

    monkeypatch.setattr(trainer, "data_load_seconds", spy("loop"))
    monkeypatch.setattr(report, "data_load_seconds", spy("report"))
    ds = make_clustered_dataset(240, n_classes=4, dim=16, rng=0)
    train, test = train_test_split(ds, test_fraction=0.25, rng=1)
    recorder = InMemoryRecorder()
    result = trainer.Trainer(
        build_model("resnet18", train.dim, train.num_classes, rng=2),
        train, test, SpiderCachePolicy(cache_fraction=0.3, rng=3),
        trainer.TrainerConfig(epochs=2, batch_size=32),
        observer=Observer(recorder=recorder), rng=4,
    ).run()
    aggs = report.aggregate_trace(recorder.events)

    assert [e.data_load_s for e in result.epochs] == returned["loop"]
    assert [a.data_load_s for a in aggs] == returned["report"]
    assert returned["report"] == pytest.approx(returned["loop"], abs=1e-12)
    assert all(v > 0 for v in returned["loop"])
