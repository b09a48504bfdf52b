"""CLI tests (fast settings)."""

import argparse
import dataclasses
import json
import tempfile
from pathlib import Path
from typing import Callable, List, Optional, Tuple

import pytest

from repro.baselines.registry import POLICIES
from repro.cli import _build_parser, main
from repro.resilience.campaign import DEFAULT_SCENARIOS
from repro.train.trainer import EpochRunner

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
    # One table: every --policy option offers exactly the registry.
    for command in ("train", "trace", "faults"):
        (policy,) = [a for a in _subcommands()[command]._actions
                     if a.dest == "policy"]
        assert policy.choices == sorted(POLICIES)


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


def test_faults_leaves_no_checkpoint_dir_behind(tmp_path, monkeypatch):
    """Without --checkpoint-dir the campaign checkpoints into a temporary
    directory that is gone once the command returns."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert main(["faults", "--scenarios", "preempt",
                 "--samples", "200", "--epochs", "2"]) == 0
    assert list(tmp_path.glob("repro-faults-*")) == []


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


def test_rejected_train_leaves_the_previous_trace(tmp_path, capsys):
    run_dir = tmp_path / "run"
    traced = ["train", "--trace-dir", str(run_dir)] + FAST
    assert main(traced) == 0
    before = (run_dir / "trace.jsonl").read_bytes()
    assert before
    assert main(traced + ["--world-size", "0"]) == 2
    assert "world_size must be >= 1" in capsys.readouterr().err
    assert (run_dir / "trace.jsonl").read_bytes() == before


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--cache-shards", "2"], "cache_shards requires shared_cache"),
        (["--world-size", "2", "--cache-shards", "2"],
         "cache_shards requires shared_cache"),
        (["--shared-cache", "--transport", "real"], "needs cache_shards > 0"),
        (["--transport", "real"], "needs cache_shards > 0"),
        (["--world-size", "2", "--transport", "real"], "needs cache_shards > 0"),
        (["--rpc-retry-budget", "9", "--rpc-deadline-ms", "3"],
         "needs --cache-shards"),
        (["--rpc-retry-budget", "9"], "--rpc-retry-budget needs --cache-shards"),
        (["--world-size", "2", "--shared-cache", "--rpc-deadline-ms", "3"],
         "--rpc-deadline-ms needs --cache-shards"),
        (["--world-size", "0"], "world_size must be >= 1"),
    ],
)
def test_train_shard_tier_rejections_come_from_the_constructor(
    flags, message, capsys
):
    assert main(["train"] + flags + FAST) == 2
    assert message in capsys.readouterr().err


EPOCHS_0 = ("--samples", "200", "--epochs", "0")


@pytest.mark.parametrize("argv,message", [
    (["train", "--policy", "baseline", *EPOCHS_0], "epochs must be >= 1, got 0"),
    (["compare", "--policies", "baseline", *EPOCHS_0],
     "epochs must be >= 1, got 0"),
    (["trace", *EPOCHS_0], "epochs must be >= 1, got 0"),
    (["faults", *EPOCHS_0], "epochs must be >= 1, got 0"),
    (["faults", "--samples", "200", "--epochs", "1", "--scenarios", "preempt",
      "--checkpoint-every", "-3", "--checkpoint-dir", "{dir}"],
     "checkpoint_every_batches must be >= 0, got -3"),
    (["trace", "--samples", "200", "--epochs", "1", "--capacity", "-1"],
     "--capacity must be a dataset fraction in [0, 1], got -1.0"),
    (["trace", "--samples", "200", "--epochs", "1", "--capacity", "nan"],
     "--capacity must be a dataset fraction in [0, 1], got nan"),
    # preempt kills after (epoch 1, batch 2): one epoch never reaches it,
    # nor do epochs of 72 training samples (two batches of 64).
    (["faults", "--samples", "200", "--epochs", "1", "--scenarios", "preempt",
      "--checkpoint-dir", "{dir}"],
     "scenario 'preempt' preempts at (epoch 1, batch 2), outside the run "
     "(1 epoch(s) of 3 batch(es))"),
    (["faults", "--samples", "96", "--epochs", "2",
      "--scenarios", "outage", "preempt", "--checkpoint-dir", "{dir}"],
     "scenario 'preempt' preempts at (epoch 1, batch 2), outside the run "
     "(2 epoch(s) of 2 batch(es))"),
], ids=["train", "compare", "trace", "faults", "faults-cadence",
        "trace-capacity-negative", "trace-capacity-nan",
        "faults-preempt-epoch", "faults-preempt-batch"])
def test_subcommands_reject_what_the_constructors_refuse(
    argv, message, tmp_path, capsys
):
    """Exit 2 with the constructor's message, before anything runs or is
    written."""
    ckpts = tmp_path / "ckpts"
    assert main([str(ckpts) if a == "{dir}" else a for a in argv]) == 2
    out, err = capsys.readouterr()
    assert message in err and out == ""
    assert not ckpts.exists()


def test_train_shared_cache_on_one_worker(capsys):
    """``DataParallelTrainer(world_size=1)`` honours a shared, sharded
    cache, so the CLI routes the flags there instead of refusing them."""
    flags = ["--shared-cache", "--cache-shards", "2", "--world-size", "1"]
    assert main(["train"] + flags + FAST) == 0
    assert "mean hit" in capsys.readouterr().out


def test_report_missing_dir(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nothing")]) == 2
    assert "not found" in capsys.readouterr().err


# -- repro train: every flag's contract ---------------------------------
@dataclasses.dataclass
class Run:
    code: int
    out: str
    err: str
    trainer: object  # the trainer `main` ran, or None
    trace_dir: Path


@dataclasses.dataclass
class Flag:
    """One ``repro train`` option: ``argv`` sets it (with any flag it
    needs, ``{dir}`` standing for a fresh directory) and ``holds(run,
    base)`` names what it moves against the run of ``base`` alone — or
    ``rejected`` is the exit-2 message it gets."""

    argv: List[str]
    holds: Optional[Callable[[Run, Run], bool]] = None
    base: Tuple[str, ...] = ()
    rejected: Optional[str] = None


def _stdout_moves(run, base):
    return run.out != base.out


def _summary(run):
    return json.loads((run.trace_dir / "summary.json").read_text())


def _client(run):
    return run.trainer.workers[0].policy.cache


SHARED_TIER = ("--shared-cache", "--cache-shards", "2")
TRACED = ("--trace-dir", "{dir}")

TRAIN_FLAGS = {
    "--policy": Flag(["--policy", "shade"], _stdout_moves),
    "--trace-dir": Flag(["--trace-dir", "{dir}"], lambda run, base: (
        "run artifacts written" in run.out
        and all((run.trace_dir / f).is_file()
                for f in ("trace.jsonl", "epochs.jsonl", "summary.json"))
    )),
    "--world-size": Flag(["--world-size", "2"], lambda run, base: (
        run.trainer.world_size == 2 and _stdout_moves(run, base)
    )),
    "--shared-cache": Flag(
        ["--world-size", "2", "--shared-cache"], _stdout_moves,
        base=("--world-size", "2"),
    ),
    # Shard RPCs are counted in the exported metrics.
    "--cache-shards": Flag(
        [*SHARED_TIER, *TRACED], lambda run, base: (
            _summary(run)["metrics"]["counters"]["rpc.shard1.calls"] > 0
        ),
    ),
    "--transport": Flag(["--transport", "real"], rejected="needs cache_shards > 0"),
    # A fault-free run makes no retry and meets every deadline, so the RPC
    # knobs leave the output alone; they reach the shard client.
    "--rpc-deadline-ms": Flag(
        [*SHARED_TIER, "--rpc-deadline-ms", "3"], lambda run, base: (
            _client(run).transport.deadline_s == 0.003 and run.out == base.out
        ),
        base=SHARED_TIER,
    ),
    "--rpc-retry-budget": Flag(
        [*SHARED_TIER, "--rpc-retry-budget", "5"], lambda run, base: (
            _client(run).retry.max_attempts == 5 and run.out == base.out
        ),
        base=SHARED_TIER,
    ),
    "--preset": Flag(["--preset", "cifar100-like"], _stdout_moves),
    "--model": Flag(["--model", "alexnet"], _stdout_moves),
    "--samples": Flag(["--samples", "200"], _stdout_moves),
    "--epochs": Flag(["--epochs", "3"], lambda run, base: (
        run.out.count("\n") == base.out.count("\n") + 1
    )),
    "--batch-size": Flag(["--batch-size", "32"], _stdout_moves),
    "--cache-fraction": Flag(["--cache-fraction", "0.5"], _stdout_moves),
    "--seed": Flag(["--seed", "1"], _stdout_moves),
}


def _subcommands():
    (sub,) = [a for a in _build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _train_options():
    return [a.option_strings[-1] for a in _subcommands()["train"]._actions
            if a.option_strings and a.dest != "help"]


def _train(argv, tmp_path, capsys, monkeypatch):
    """``repro train`` at FAST settings (later flags win), capturing the
    trainer it builds."""
    trainers = []
    run = EpochRunner.run
    monkeypatch.setattr(
        EpochRunner, "run", lambda self: trainers.append(self) or run(self)
    )
    trace_dir = tmp_path / "run"
    argv = [str(trace_dir) if a == "{dir}" else a for a in argv]
    code = main(["train"] + FAST + argv)
    out, err = capsys.readouterr()
    return Run(code, out, err, trainers[0] if trainers else None, trace_dir)


def test_every_train_flag_row_is_an_option():
    assert set(TRAIN_FLAGS) <= set(_train_options())


@pytest.mark.parametrize("flag", _train_options())
def test_train_flag_moves_its_output_or_is_rejected(
    flag, tmp_path, capsys, monkeypatch
):
    assert flag in TRAIN_FLAGS, f"repro train {flag} has no contract row"
    row = TRAIN_FLAGS[flag]
    run = _train(row.argv, tmp_path, capsys, monkeypatch)
    if row.rejected is not None:
        assert run.code == 2 and row.rejected in run.err
        return
    assert run.code == 0, run.err
    base = _train(list(row.base), tmp_path, capsys, monkeypatch)
    assert row.holds(run, base), f"{flag} {row.argv} moved nothing"
