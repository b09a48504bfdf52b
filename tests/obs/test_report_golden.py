"""Golden regression test for the ``repro report`` CLI.

The fixtures under ``fixtures/`` are checked-in artifact sets with the
report each rendered at the time (EXPERIMENTS.md "Golden report fixtures"
has the recipes). ``golden-run/`` is a small traced single-worker run
(``repro train --policy spidercache --samples 120 --epochs 2 --batch-size
32 --seed 7 --trace-dir ...``) in the row-block trace format.
``golden-shard-run/`` is a two-worker sharded run kept in the older
one-line-per-event format, written before row blocks existed; its
``run_start`` still carries a loader knob the trainer no longer has, so
it also covers a trace from an older writer reading and rendering
unchanged.
Any change to the report layout, the trace aggregation, or the
consistency check shows up here as a diff — update the golden file
deliberately, with the rendered output, when the change is intended.
"""

from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def test_report_cli_matches_golden_fixture(capsys):
    assert main(["report", str(FIXTURES / "golden-run")]) == 0
    out = capsys.readouterr().out
    golden = (FIXTURES / "golden-report.txt").read_text()
    assert out.splitlines() == golden.splitlines()


def test_golden_fixture_consistency_check_passes():
    """The checked-in single-worker trace reconciles with its epoch
    metrics."""
    golden = (FIXTURES / "golden-report.txt").read_text()
    assert "trace vs per-epoch metrics: OK" in golden


def test_report_cli_matches_golden_shard_fixture(capsys):
    """Sharded-run fixture (``--world-size 2 --shared-cache --cache-shards
    2``, same seed recipe; see EXPERIMENTS.md for regeneration) renders
    the shards section and the multi-worker consistency check (ratios
    only)."""
    assert main(["report", str(FIXTURES / "golden-shard-run")]) == 0
    out = capsys.readouterr().out
    golden = (FIXTURES / "golden-shard-report.txt").read_text()
    assert out.splitlines() == golden.splitlines()


def test_golden_shard_fixture_has_shard_section():
    golden = (FIXTURES / "golden-shard-report.txt").read_text()
    assert "shards (final state):" in golden
    assert ("trace vs per-epoch metrics: OK over 2 epoch(s) (hit and "
            "substitute ratios; stage times skipped") in golden
    assert "cache_shards=2" in golden
