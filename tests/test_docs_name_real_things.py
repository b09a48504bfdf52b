"""README / DESIGN / EXPERIMENTS name only things that exist.

Every ``make <target>`` is a Makefile target, every ``python -m repro
<cmd>`` is a parser subcommand, every ``benchmarks/*.py`` /
``tests/**/*.py`` path is a file, and every bare ``test_*.py`` name is
exactly one file under ``tests/`` or ``benchmarks/``. Docs outlive the
code they describe unless something fails when they do.
"""

import re
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")


def _mentions(pattern):
    """Sorted ``(doc, match)`` pairs of ``pattern`` over the three docs."""
    return sorted({
        (doc, m) for doc in DOCS
        for m in re.findall(pattern, (ROOT / doc).read_text(), re.MULTILINE)
    })


def test_make_targets_exist():
    targets = re.findall(
        r"^([a-z][\w-]*):", (ROOT / "Makefile").read_text(), re.MULTILINE
    )
    # `make x` in backticks or opening a code-block line; prose "make" is
    # never followed by a target there.
    mentions = _mentions(r"(?:^|`)make ([a-z][\w-]*)")
    assert mentions
    assert not [m for m in mentions if m[1] not in targets]


def test_cli_subcommands_exist(capsys):
    mentions = _mentions(r"python3? -m repro ([a-z]+)")
    assert mentions
    for doc, command in mentions:
        # argparse exits 0 on a known subcommand's --help, 2 otherwise.
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0, f"{doc} names `python -m repro {command}`"


def test_test_and_bench_paths_exist():
    mentions = _mentions(r"\b((?:benchmarks|tests)/[\w/.-]*\.py)")
    assert mentions
    assert not [m for m in mentions if not (ROOT / m[1]).is_file()]


def test_bare_test_file_names_resolve():
    mentions = _mentions(r"(?<![\w/.-])(test_\w+\.py)")
    assert mentions
    files = [
        path.name for top in ("tests", "benchmarks")
        for path in (ROOT / top).rglob("test_*.py")
    ]
    assert not [m for m in mentions if files.count(m[1]) != 1]
