"""README / DESIGN / EXPERIMENTS name only things that exist.

Every ``make <target>`` is a Makefile target, every ``python -m repro
<cmd>`` is a parser subcommand, every ``benchmarks/*.py`` /
``tests/**/*.py`` path is a file, and every bare ``test_*.py`` name is
exactly one file under ``tests/`` or ``benchmarks/``, and every
``from repro... import name`` in a fenced ``python`` block imports a
module that has that name. Docs outlive the code they describe unless
something fails when they do.
"""

import ast
import importlib
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


def test_doc_code_imports_resolve():
    imports = [
        (doc, node.module, alias.name)
        for doc, block in _mentions(r"(?s)^```python\n(.*?)^```")
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom)
        and node.module.split(".")[0] == "repro"
        for alias in node.names
    ]
    assert imports
    missing = [
        f"{doc}: from {module} import {name}"
        for doc, module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing, missing
