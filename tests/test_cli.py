"""CLI tests (fast settings)."""

import pytest

from repro import baselines
from repro.cli import POLICIES, main
from repro.resilience.campaign import DEFAULT_SCENARIOS

FAST = ["--samples", "300", "--epochs", "2", "--batch-size", "64"]


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "cifar10-like" in out
    assert "resnet18" in out
    assert "spidercache" in out


def test_policies_registry_complete():
    assert {"spidercache", "shade", "icache", "icache-imp", "coordl",
            "baseline", "lfu", "spidercache-imp"} <= set(POLICIES)
    # One table: the CLI serves the registry beside the policy classes.
    assert POLICIES is baselines.POLICIES


def test_faults_preemption_costs_only_the_restart_penalty(tmp_path, capsys):
    """Every policy checkpoints what it decided, so a preempted run resumes
    bit-exactly: the accuracy is untouched and the only extra time is the
    restart penalty the scenario charges."""
    (preempt,) = [s for s in DEFAULT_SCENARIOS if s.name == "preempt"]
    assert main(["faults", "--policy", "shade", "--scenarios", "preempt",
                 "--samples", "600", "--epochs", "3",
                 "--checkpoint-dir", str(tmp_path)]) == 0
    (row,) = [line.split() for line in capsys.readouterr().out.splitlines()
              if line.startswith("preempt ")]
    scenario, ok, acc, d_acc, time, d_time = row[:6]
    assert ok == "y"
    assert d_acc == "+0.000"
    assert d_time == f"{preempt.restart_penalty_s:+.1f}s" == "+5.0s"


def test_train_command(capsys):
    assert main(["train", "--policy", "spidercache"] + FAST) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out
    assert "mean hit" in out


def test_train_each_policy_smoke(capsys):
    for name in ["shade", "coordl", "baseline"]:
        assert main(["train", "--policy", name] + FAST) == 0


def test_compare_command(capsys):
    assert main(
        ["compare", "--policies", "spidercache", "baseline"] + FAST
    ) == 0
    out = capsys.readouterr().out
    assert "spidercache" in out
    assert "baseline" in out
    assert "speedup" in out


def test_trace_command(capsys):
    assert main(["trace", "--policy", "baseline", "--capacity", "0.2"] + FAST) == 0
    out = capsys.readouterr().out
    assert "Belady OPT" in out
    assert "LRU" in out


def test_unknown_policy_rejected():
    with pytest.raises(SystemExit):
        main(["train", "--policy", "nonexistent"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_train_with_trace_dir_and_report(tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert main(
        ["train", "--policy", "spidercache", "--trace-dir", str(run_dir)]
        + FAST
    ) == 0
    out = capsys.readouterr().out
    assert "run artifacts written" in out
    assert (run_dir / "trace.jsonl").is_file()
    assert (run_dir / "epochs.jsonl").is_file()
    assert (run_dir / "summary.json").is_file()

    assert main(["report", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "policy=spidercache" in out
    assert "trace vs per-epoch metrics: OK" in out


def test_train_rejects_prefetch_with_several_workers(capsys):
    """The overlap model is defined for one loader per clock; the
    data-parallel run used to build a serial loader without a word."""
    flags = ["--world-size", "2", "--prefetch-workers", "4"]
    assert main(["train"] + flags + FAST) == 2
    assert "prefetch_workers > 0 requires world_size == 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--cache-shards", "2"], "cache_shards requires shared_cache"),
        (["--world-size", "2", "--cache-shards", "2"],
         "cache_shards requires shared_cache"),
        (["--resize-shards-at", "1:4"], "resize_shards_at requires cache_shards"),
    ],
)
def test_train_shard_tier_rejections_come_from_the_constructor(
    flags, message, capsys
):
    assert main(["train"] + flags + FAST) == 2
    assert message in capsys.readouterr().err


def test_report_missing_dir(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nothing")]) == 2
    assert "not found" in capsys.readouterr().err


# -- repro load ---------------------------------------------------------
LOAD_FAST = ["load", "--requests", "4000", "--keys", "300",
             "--capacity", "128", "--window", "400"]


def test_load_command_smoke(capsys):
    assert main(LOAD_FAST) == 0
    out = capsys.readouterr().out
    assert "p50" in out and "p99" in out and "p999" in out
    assert "SLO:" in out
    assert "autoscaler:" in out
    assert "digest:" in out


def test_load_command_is_deterministic(capsys):
    assert main(LOAD_FAST + ["--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(LOAD_FAST + ["--seed", "5"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_load_no_autoscale_keeps_fleet_fixed(capsys):
    assert main(LOAD_FAST + ["--no-autoscale", "--shards", "3"]) == 0
    out = capsys.readouterr().out
    assert "0 grow(s), 0 shrink(s); shards 3 -> 3" in out


def test_load_with_trace_dir_and_report(tmp_path, capsys):
    run_dir = tmp_path / "load-run"
    assert main(LOAD_FAST + ["--trace-dir", str(run_dir)]) == 0
    capsys.readouterr()
    assert (run_dir / "load.json").is_file()
    assert (run_dir / "trace.jsonl").is_file()
    assert main(["report", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "load / SLO:" in out
    assert "p99=" in out


def test_load_prints_burn_rate_alerts(capsys):
    # A 2ms SLO this tier cannot meet: the alert rules must fire.
    assert main(LOAD_FAST + ["--slo-ms", "2"]) == 0
    out = capsys.readouterr().out
    assert "burn-rate alerts: FIRING:" in out
    assert "transition(s)" in out
    assert "burn short=" in out and "long=" in out


def test_load_healthy_slo_reports_none_firing(capsys):
    assert main(LOAD_FAST + ["--slo-ms", "1000"]) == 0
    out = capsys.readouterr().out
    assert "burn-rate alerts: none firing (0 transition(s))" in out


# -- repro metrics ------------------------------------------------------
def test_metrics_command_exports_prometheus_text(tmp_path, capsys):
    run_dir = tmp_path / "load-run"
    assert main(LOAD_FAST + ["--trace-dir", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["metrics", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "# TYPE repro_rpc_calls_total counter" in out
    assert 'repro_rpc_latency_s_bucket{le="+Inf"}' in out
    assert "repro_load_windows_total 10" in out
    assert out.endswith("\n")
    # Every sample line parses as `name value`.
    for line in out.splitlines():
        if line and not line.startswith("#"):
            float(line.rsplit(" ", 1)[1])


def test_metrics_command_custom_prefix(tmp_path, capsys):
    run_dir = tmp_path / "load-run"
    assert main(LOAD_FAST + ["--trace-dir", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["metrics", str(run_dir), "--prefix", "spider_"]) == 0
    out = capsys.readouterr().out
    assert "spider_rpc_calls_total" in out
    assert "repro_" not in out


def test_metrics_command_training_run(tmp_path, capsys):
    run_dir = tmp_path / "train-run"
    assert main(
        ["train", "--policy", "spidercache", "--trace-dir", str(run_dir)]
        + FAST
    ) == 0
    capsys.readouterr()
    assert main(["metrics", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "repro_cache_fetches_total" in out
    assert "# TYPE repro_train_epoch_time_s histogram" in out


def test_metrics_command_without_snapshot(tmp_path, capsys):
    assert main(["metrics", str(tmp_path)]) == 2
    assert "no metrics snapshot" in capsys.readouterr().err


# Flags without a hand-written CLI row (ROADMAP 1c): the constructor the
# flag always reaches rejects it, and its message names the field the flag
# feeds instead of the flag.
FIELD_OF_FLAG = {
    "--zipf-skew": "zipf_exponent",
    "--put-fraction": "put_fraction",
    "--base-rate": "rates must be positive",
    "--slo-ms": "target_s",
    "--slo-goal": "goal",
    "--service-rate": "service_rate_per_shard",
    "--imp-ratio": "imp_ratio",
    "--min-shards": "min_shards",
    "--breach-windows": "breach_windows",
    "--growth-factor": "growth_factor",
}


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--requests", "0"], "--requests"),
        (["--keys", "4"], "--keys"),
        (["--zipf-skew", "-0.5"], "--zipf-skew"),
        (["--put-fraction", "1.5"], "--put-fraction"),
        (["--base-rate", "0"], "--base-rate"),
        (["--burst-rate", "-10"], "--burst-rate"),
        (["--mean-on-s", "0"], "--mean-on-s"),
        (["--diurnal-amplitude", "1.0"], "--diurnal-amplitude"),
        (["--slo-ms", "0"], "--slo-ms"),
        (["--slo-goal", "0"], "--slo-goal"),
        (["--slo-goal", "1.2"], "--slo-goal"),
        (["--service-rate", "0"], "--service-rate"),
        (["--imp-ratio", "2.0"], "--imp-ratio"),
        (["--min-shards", "4", "--max-shards", "2"], "--min-shards"),
        (["--p99-high-ms", "2", "--p99-low-ms", "3"], "hysteresis"),
        (["--util-high", "0.2", "--util-low", "0.3"], "hysteresis"),
        (["--breach-windows", "0"], "--breach-windows"),
        (["--growth-factor", "1.0"], "--growth-factor"),
        (["--put-fraction", "1.0"], "--put-fraction"),
        # No CLI row: BurstyArrivals' own check, via the construction boundary.
        (["--burst-rate", "10", "--base-rate", "300"], "rate_high"),
    ],
)
def test_load_rejects_bad_flags(flags, message, capsys):
    assert main(["load"] + flags) == 2
    assert FIELD_OF_FLAG.get(message, message) in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags,field",
    [
        (["--capacity", "0"], "total_capacity"),
        (["--shards", "0"], "n_shards"),
        (["--window", "0"], "window_requests"),
        (["--miss-ms", "-1"], "miss_latency_s"),
        (["--cooldown-windows", "-1"], "cooldown_windows"),
        (["--p99-low-ms", "0"], "p99 thresholds"),
        (["--util-low", "-0.1"], "utilization thresholds"),
        (["--base-rate", "0", "--arrivals", "constant"], "rate must be positive"),
        (["--base-rate", "0", "--arrivals", "diurnal"], "base_rate"),
        # The autoscaler's knobs are checked even when it is switched off.
        (["--no-autoscale", "--growth-factor", "1.0"], "growth_factor"),
        (["--no-autoscale", "--min-shards", "0"], "min_shards"),
    ],
)
def test_load_flags_without_a_cli_row_are_rejected_by_their_constructor(
    flags, field, capsys
):
    """The rows deleted from ``_cmd_load`` that the table above never
    exercised: still exit 2, still a message naming the quantity."""
    assert main(["load"] + flags) == 2
    assert field in capsys.readouterr().err


def test_load_does_not_swallow_errors_from_the_run(monkeypatch):
    """Only construction is a rejection boundary: a ``ValueError`` out of
    ``run()`` is a bug and must keep its traceback."""
    from repro.load import ReplayHarness

    def boom(self, trace):
        raise ValueError("raised inside run")

    monkeypatch.setattr(ReplayHarness, "run", boom)
    with pytest.raises(ValueError, match="raised inside run"):
        main(LOAD_FAST)
