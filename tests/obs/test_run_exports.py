"""What a fresh run exports, pinned byte for byte.

The golden report fixtures (``test_report_golden.py``) render checked-in
artifacts; the sharded one's trace predates row blocks and is kept as the
test of reading old traces. This module instead *re-runs* the two EXPERIMENTS.md
fixture recipes into a temporary directory and compares what they write
— ``summary.json`` (metrics snapshot included) and the ``repro report``
text rendered from it — with pinned copies. A change to what a run counts, or to how the snapshot is
assembled, shows up here as a diff.

The pins are float-exact. Regenerate them only for a deliberate change,
from the repo root with ``PYTHONPATH=src``: run each recipe in
:data:`TRAIN_RECIPES` as ``python -m repro train <args> --trace-dir D``,
then copy ``D/summary.json`` to ``fixtures/exports/<name>.summary.json``
and ``python -m repro report D`` to ``fixtures/exports/<name>.report.txt``.
"""

from pathlib import Path

import pytest

from repro.cli import main

PINS = Path(__file__).parent / "fixtures" / "exports"

COMMON = [
    "--policy", "spidercache", "--samples", "120", "--epochs", "2",
    "--batch-size", "32", "--seed", "7",
]

#: EXPERIMENTS.md "Golden report fixtures": a single-worker run and a
#: two-worker run over a two-shard shared cache.
TRAIN_RECIPES = {
    "run": COMMON,
    "shard-run": COMMON + [
        "--world-size", "2", "--shared-cache", "--cache-shards", "2",
    ],
}

def _report(run_dir: Path, capsys) -> str:
    capsys.readouterr()
    assert main(["report", str(run_dir)]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(TRAIN_RECIPES))
def test_train_recipe_exports_the_pinned_bytes(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(["train", *TRAIN_RECIPES[name], "--trace-dir", str(out)]) == 0
    report = _report(out, capsys)
    assert (out / "summary.json").read_text() == (
        PINS / f"{name}.summary.json"
    ).read_text()
    assert report == (PINS / f"{name}.report.txt").read_text()
