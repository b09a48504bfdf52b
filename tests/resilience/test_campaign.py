"""Fault-campaign sweeps (tier-2: run with ``pytest -m resilience``)."""

import pytest

from repro.resilience import campaign as campaign_module
from repro.resilience.campaign import (
    DEFAULT_SCENARIOS,
    FaultCampaign,
    FaultScenario,
)
from repro.resilience.trainer import ResilientTrainer

pytestmark = pytest.mark.resilience


SMALL_SCENARIOS = (
    FaultScenario("outage", outages=((0.05, 0.10),)),
    FaultScenario("brownout", brownouts=((0.10, 0.40, 6.0),)),
    FaultScenario("preempt", preempt_at=((1, 2),), restart_penalty_s=2.0),
)


@pytest.fixture
def campaign(build_run, tmp_path, monkeypatch):
    # A short cool-down, so the outage's breaker re-closes inside the run.
    monkeypatch.setattr(campaign_module, "BREAKER_COOLDOWN_FRAC", 0.01)

    def make_trainer(**kw):
        trainer, _, _ = build_run(
            ResilientTrainer, epochs=2, n_samples=96,
            checkpoint_every_batches=3, **kw,
        )
        return trainer

    return FaultCampaign(make_trainer, tmp_path, scenarios=SMALL_SCENARIOS)


def test_campaign_reports_every_scenario(campaign):
    result = campaign.run()
    assert result.clean_time_s > 0
    assert [r.scenario for r in result.reports] == [s.name for s in SMALL_SCENARIOS]
    assert all(r.completed for r in result.reports)

    outage = result.reports[0]
    assert outage.outage_failures > 0
    assert outage.breaker_opens > 0
    assert outage.degraded_substituted + outage.degraded_skipped > 0

    brownout = result.reports[1]
    assert brownout.brownout_extra_s > 0
    assert brownout.time_overhead_s > 0  # slower storage, same work

    preempt = result.reports[2]
    assert preempt.restarts == 1
    assert preempt.recovery_s == pytest.approx(2.0)
    assert preempt.checkpoints_written > 0
    # Exact recovery: a pure-preemption scenario lands on the clean
    # accuracy precisely.
    assert preempt.accuracy_delta == pytest.approx(0.0)


def test_campaign_records_scenario_failure_as_finding(build_run, tmp_path):
    class Boom(RuntimeError):
        pass

    calls = {"n": 0}

    def make_trainer(**kw):
        calls["n"] += 1
        trainer, _, _ = build_run(
            ResilientTrainer, epochs=1, n_samples=64, **kw
        )
        if calls["n"] > 1:  # sabotage the scenario run, not the baseline
            trainer.run = lambda: (_ for _ in ()).throw(Boom("nope"))
        return trainer

    campaign = FaultCampaign(
        make_trainer, tmp_path, scenarios=[FaultScenario("doomed")]
    )
    result = campaign.run()
    assert not result.reports[0].completed
    assert "Boom" in result.reports[0].error
    assert "doomed" in result.format_table()


def test_format_table_lists_all_scenarios(campaign):
    result = campaign.run()
    table = result.format_table()
    assert "clean baseline" in table
    for s in SMALL_SCENARIOS:
        assert s.name in table


def test_default_scenarios_cover_each_fault_class():
    kinds = set()
    for s in DEFAULT_SCENARIOS:
        if s.outages:
            kinds.add("outage")
        if s.brownouts:
            kinds.add("brownout")
        if s.preempt_at:
            kinds.add("preempt")
    assert kinds == {"outage", "brownout", "preempt"}


def test_cli_faults_subcommand(build_run, capsys, tmp_path):
    from repro.cli import main

    main([
        "faults", "--samples", "96", "--epochs", "2",
        "--scenarios", "preempt",
        "--checkpoint-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert "clean baseline" in out
    assert "preempt" in out
