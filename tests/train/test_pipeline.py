"""Pipeline overlap-model tests (Table 1 / Fig. 12)."""

import pytest

from repro.train.pipeline import PipelineSimulator, StageCostModel


def test_from_model_names():
    c = StageCostModel.for_model("resnet18")
    assert (c.stage1_ms, c.stage2_ms, c.is_ms) == (42.0, 35.0, 16.0)


def test_recommended_modes_match_paper():
    """Fig. 12: ResNets overlap Stage2 only; AlexNet/VGG16 need the extended
    window into the next batch's Stage1."""
    assert StageCostModel.for_model("resnet18").recommended_mode() == "stage2"
    assert StageCostModel.for_model("resnet50").recommended_mode() == "stage2"
    assert StageCostModel.for_model("alexnet").recommended_mode() == "stage2+next_stage1"
    assert StageCostModel.for_model("vgg16").recommended_mode() == "stage2+next_stage1"


def test_visible_is_fully_hidden_when_it_fits():
    c = StageCostModel(40, 30, 10)
    assert c.visible_is_ms("stage2") == 0.0
    assert c.visible_is_ms("none") == 10.0


def test_visible_is_partial():
    c = StageCostModel(40, 30, 50)
    assert c.visible_is_ms("stage2") == 20.0
    assert c.visible_is_ms("stage2+next_stage1") == 0.0


def test_schedule_serial_makespan():
    c = StageCostModel(10, 5, 3)
    sim = PipelineSimulator(c, mode="none")
    assert sim.makespan_ms(4) == pytest.approx(4 * 18)


def test_schedule_stage2_overlap_hides_is():
    c = StageCostModel(10, 5, 3)  # IS fits in stage2
    sim = PipelineSimulator(c, mode="stage2")
    assert sim.makespan_ms(8) == pytest.approx(8 * 15)
    assert sim.visible_overhead_ms(8) == pytest.approx(0.0)


def test_schedule_stage2_overlap_partial():
    c = StageCostModel(10, 5, 9)  # IS exceeds stage2 by 4
    sim = PipelineSimulator(c, mode="stage2")
    # Each batch after the first delayed by 4ms.
    assert sim.per_batch_visible_ms(64) > 0


def test_extended_overlap_hides_long_is():
    c = StageCostModel.for_model("alexnet")  # is=35 > stage2=33
    # Only the final batch's IS tail (2ms) sticks out past the last Stage2 —
    # amortized per-batch overhead is negligible.
    hidden = PipelineSimulator(c, mode="stage2+next_stage1")
    assert hidden.visible_overhead_ms(32) <= c.is_ms - c.stage2_ms + 1e-9
    assert hidden.per_batch_visible_ms(32) < 0.5
    partial = PipelineSimulator(c, mode="stage2")
    assert partial.visible_overhead_ms(32) > hidden.visible_overhead_ms(32)


def test_paper_claim_all_models_fully_hidden():
    """§5: with the recommended mode, the amortized IS overhead is hidden
    for every model in the zoo (at most one IS tail across the whole run)."""
    for name in ["resnet18", "resnet50", "alexnet", "vgg16"]:
        c = StageCostModel.for_model(name)
        sim = PipelineSimulator(c, mode=c.recommended_mode())
        assert sim.per_batch_visible_ms(64) < 0.5, name
        assert c.visible_is_ms(c.recommended_mode()) == 0.0, name


def test_schedule_intervals_well_formed():
    c = StageCostModel(10, 5, 3)
    sim = PipelineSimulator(c, mode="stage2")
    sched = sim.schedule(5)
    assert len(sched) == 15  # 3 intervals per batch
    for iv in sched:
        assert iv.end_ms > iv.start_ms
        assert iv.end_ms - iv.start_ms == pytest.approx(
            {"stage1": 10, "stage2": 5, "is": 3}[iv.stage]
        )
    # Stage1(b) precedes Stage2(b); IS(b) starts at Stage1(b) end.
    by_batch = {}
    for iv in sched:
        by_batch.setdefault(iv.batch, {})[iv.stage] = iv
    for b, stages in by_batch.items():
        assert stages["stage2"].start_ms == stages["stage1"].end_ms
        assert stages["is"].start_ms == stages["stage1"].end_ms


def test_invalid_batches():
    sim = PipelineSimulator(StageCostModel(1, 1, 1))
    import pytest as _pt

    with _pt.raises(ValueError):
        sim.schedule(0)


def test_vgg16_extended_window_hides_is():
    c = StageCostModel.for_model("vgg16")
    assert c.is_ms == 31.0
    assert c.visible_is_ms("stage2+next_stage1") == 0.0
