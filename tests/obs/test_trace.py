"""Trace recorder tests: in-memory and JSONL sinks."""

import json
import signal
import subprocess
import sys

import pytest

from repro.obs.trace import (
    SEGMENT_KIND,
    InMemoryRecorder,
    JsonlRecorder,
    read_jsonl,
)


def test_in_memory_recorder_accumulates():
    rec = InMemoryRecorder()
    rec.emit({"kind": "fetch", "epoch": 0})
    rec.emit({"kind": "batch", "epoch": 0})
    rec.emit({"kind": "fetch", "epoch": 1})
    assert len(rec.events) == 3
    assert [e["epoch"] for e in rec.events if e["kind"] == "fetch"] == [0, 1]
    rec.clear()
    assert rec.events == []


def test_jsonl_recorder_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    with JsonlRecorder(path) as rec:
        rec.emit({"kind": "run_start", "epoch": -1, "policy": "spidercache"})
        rec.emit({"kind": "fetch", "epoch": 0, "requested_id": 7,
                  "served_id": 7, "source": "remote", "latency_s": 0.004})
    # 2 payload events + the segment header written on first open.
    assert rec.emitted == 3
    events = read_jsonl(path)
    assert events[0]["kind"] == SEGMENT_KIND
    assert events[0]["resumed"] is False
    assert events[1]["kind"] == "run_start"
    assert events[2]["served_id"] == 7
    assert events[2]["latency_s"] == pytest.approx(0.004)


def test_jsonl_recorder_lazy_open(tmp_path):
    path = tmp_path / "sub" / "trace.jsonl"
    rec = JsonlRecorder(path)
    assert not path.exists()  # nothing until the first event
    rec.emit({"kind": "fetch", "epoch": 0})
    assert path.exists()
    rec.close()
    rec.close()  # idempotent


def _lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_cold_event_is_on_disk_with_every_row_before_it(tmp_path):
    """The durability rule: per-request rows wait for their block to
    close, a cold event closes it and both are readable before ``emit``
    returns — a preempted run leaves a journal up to its last cold event."""
    path = tmp_path / "trace.jsonl"
    rec = JsonlRecorder(path)
    rec.emit_row(0, None, None, ("fetch", 1, 1, "remote", 0.004))
    rec.emit_row(0, None, None, ("importance_admit", 1, 1.0, True, None))
    assert not path.exists()  # the open block lives in memory
    rec.emit({"kind": "batch", "epoch": 0, "slot": 0})
    assert [e["kind"] for e in _lines(path)] == [SEGMENT_KIND, "rows", "batch"]
    assert [e["kind"] for e in read_jsonl(path)] == [
        SEGMENT_KIND, "fetch", "importance_admit", "batch",
    ]
    rec.emit({"kind": "breaker", "epoch": 0, "old": "closed", "new": "open"})
    assert read_jsonl(path)[-1]["kind"] == "breaker"  # cold: no waiting
    rec.emit_row(0, None, None, ("fetch", 2, 2, "remote", 0.004))
    assert len(read_jsonl(path)) == 5  # what a SIGKILL now would keep
    rec.close()
    assert [e["kind"] for e in read_jsonl(path)][-2:] == ["breaker", "fetch"]
    assert rec.emitted == len(_lines(path)) == 5


def test_block_closes_when_the_stamp_changes(tmp_path):
    """One block per run of rows with the same (epoch, trace, span): a row
    is never written under another request's stamp."""
    path = tmp_path / "trace.jsonl"
    rec = JsonlRecorder(path)
    fetch = ("fetch", 1, 1, "importance", 2e-05)
    for stamp in [(0, "t", "a"), (0, "t", "a"), (0, "t", None), (0, "t", "a"),
                  (1, "t", "a"), (1, None, None)]:
        rec.emit_row(*stamp, fetch)
    # Every block but the open one is on disk already.
    assert [len(e["rows"]) for e in _lines(path)[1:]] == [2, 1, 1, 1]
    rec.close()
    blocks = _lines(path)[1:]
    assert [(b["epoch"], b.get("trace"), b.get("span")) for b in blocks] == [
        (0, "t", "a"), (0, "t", None), (0, "t", "a"), (1, "t", "a"),
        (1, None, None),
    ]
    assert all("span" not in b for b in blocks if b.get("span") is None)
    assert [e.get("span") for e in read_jsonl(path)[1:]] == [
        "a", "a", None, "a", "a", None,
    ]


def test_a_block_never_outgrows_its_cap(tmp_path):
    from repro.obs.trace import _MAX_BLOCK_ROWS

    path = tmp_path / "trace.jsonl"
    with JsonlRecorder(path) as rec:
        for i in range(2 * _MAX_BLOCK_ROWS + 1):
            rec.emit_row(0, None, None, ("fetch", i, i, "remote", 0.0))
    sizes = [len(e["rows"]) for e in _lines(path)[1:]]
    assert sizes == [_MAX_BLOCK_ROWS, _MAX_BLOCK_ROWS, 1]
    assert [e["requested_id"] for e in read_jsonl(path)[1:]] == list(
        range(2 * _MAX_BLOCK_ROWS + 1)
    )


def test_everything_written_goes_through_emit(tmp_path):
    """A wrapper over the instance's ``emit`` (how perfbench times the
    sink) sees every line but the segment header."""
    path = tmp_path / "trace.jsonl"
    rec = JsonlRecorder(path)
    seen, inner = [], rec.emit
    rec.emit = lambda event: (seen.append(event["kind"]), inner(event))
    rec.emit_row(0, "t", "a", ("fetch", 1, 1, "remote", 0.004))
    rec.emit_row(0, "t", "b", ("fetch", 2, 2, "remote", 0.004))
    rec.emit({"kind": "batch", "epoch": 0})
    rec.emit_row(0, "t", "b", ("fetch", 3, 3, "remote", 0.004))
    rec.close()
    assert seen == ["rows", "batch", "rows"]
    assert [e["kind"] for e in _lines(path)] == [
        SEGMENT_KIND, "rows", "rows", "batch", "rows",
    ]


def test_interpreter_exit_drains_the_open_block(tmp_path):
    """An exception that unwinds past whoever owns the recorder loses
    nothing: only a kill signal can drop the open block."""
    path = tmp_path / "trace.jsonl"
    code = (
        "from repro.obs import JsonlRecorder\n"
        f"rec = JsonlRecorder({str(path)!r})\n"
        "rec.emit({'kind': 'run_start', 'epoch': -1})\n"
        "rec.emit_row(0, None, None, ('fetch', 1, 1, 'remote', 0.004))\n"
        "raise SystemExit(3)\n"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 3
    assert [e["kind"] for e in read_jsonl(path)] == [
        SEGMENT_KIND, "run_start", "fetch",
    ]


_KILLED_CHILD = """
import sys
from repro.core.policy import SpiderCachePolicy
from repro.data.synthetic import make_clustered_dataset, train_test_split
from repro.nn.models import build_model
from repro.obs import JsonlRecorder, MetricsRegistry, Observer
from repro.train.trainer import Trainer, TrainerConfig


class Reporting(JsonlRecorder):
    def emit(self, event):
        super().emit(event)
        if event["kind"] == "batch":
            print(event["epoch"], event["slot"], flush=True)


ds = make_clustered_dataset(240, n_classes=4, dim=16, rng=0)
train, test = train_test_split(ds, test_fraction=0.25, rng=1)
Trainer(
    build_model("resnet18", train.dim, train.num_classes, rng=2),
    train, test, SpiderCachePolicy(cache_fraction=0.25, rng=3),
    TrainerConfig(epochs=100000, batch_size=32),
    observer=Observer(Reporting(sys.argv[1]), MetricsRegistry(), span_seed=5),
    rng=4,
).run()
"""


@pytest.mark.wallclock
def test_sigkill_mid_epoch_loses_at_most_the_open_block(tmp_path):
    """SIGKILL a traced run between two batches of an epoch: the trace
    loads, holds every batch the child saw finish together with all of that
    batch's fetch rows, and a resumed recorder appends a clean segment."""
    path = tmp_path / "trace.jsonl"
    child = subprocess.Popen(
        [sys.executable, "-c", _KILLED_CHILD, str(path)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        # 180 training samples / 32 = 6 batches an epoch: stop inside one.
        reported = [tuple(map(int, child.stdout.readline().split()))
                    for _ in range(6 * 3 + 2)]
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
    assert reported[-1] == (3, 1)

    events, truncated = read_jsonl(path, return_truncated=True)
    batches = [i for i, e in enumerate(events) if e["kind"] == "batch"]
    assert [(events[i]["epoch"], events[i]["slot"]) for i in batches][
        :len(reported)] == reported
    start = 0
    for i in batches:
        fetches = [e for e in events[start:i] if e["kind"] == "fetch"]
        assert len(fetches) == events[i]["size"]
        assert {e["epoch"] for e in fetches} == {events[i]["epoch"]}
        start = i + 1
    # Whatever the kill cut is the tail: at most one partial line, and the
    # rows of the block that was open (never on disk, so never half there).
    assert "rows" not in {e["kind"] for e in events}

    with JsonlRecorder(path) as rec:
        rec.emit_row(3, None, None, ("fetch", 1, 1, "remote", 0.004))
        rec.emit({"kind": "restore", "epoch": 3})
    resumed, still_truncated = read_jsonl(path, return_truncated=True)
    assert still_truncated is False
    assert resumed[:len(events)] == events
    assert [e["kind"] for e in resumed[len(events):]] == [
        SEGMENT_KIND, "fetch", "restore",
    ]
    assert resumed[len(events)]["resumed"] is True


def test_trace_volume_per_request(tmp_path, capsys, monkeypatch):
    """Volume guard on the CI smoke configuration (300 training samples x
    2 epochs = 600 requests): bytes and sink calls per request."""
    from repro.cli import main

    calls = []
    emit = JsonlRecorder.emit

    def counting(self, event):
        calls.append(event["kind"])
        emit(self, event)

    monkeypatch.setattr(JsonlRecorder, "emit", counting)
    assert main(["train", "--policy", "spidercache", "--samples", "400",
                 "--epochs", "2", "--trace-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    events = read_jsonl(tmp_path / "trace.jsonl")
    requests = sum(e["kind"] == "fetch" for e in events)
    assert requests == 600 and len(events) == 1567
    # 10 batches x (data_load, compute, is_visible spans + batch event +
    # batch span), 2 epochs x (elastic, epoch, epoch span), run_start, run
    # span, 7 homophily inserts: 65 cold events, each one emit call. The 11
    # row blocks (one per batch, one the epoch-end homophily turnover
    # opens) are all closed by a cold event and ride its call.
    assert len(calls) == 65 and "rows" not in calls
    lines = (tmp_path / "trace.jsonl").read_text().splitlines()
    assert len(lines) == 1 + 65 + 11
    assert len(calls) / requests <= 0.2
    assert (tmp_path / "trace.jsonl").stat().st_size / requests <= 160


def test_read_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"kind":"a"}\n\n{"kind":"b"}\n')
    assert [e["kind"] for e in read_jsonl(path)] == ["a", "b"]


def test_jsonl_recorder_appends_segments_across_reopens(tmp_path):
    """A resumed run extends the journal instead of truncating it."""
    path = tmp_path / "trace.jsonl"
    with JsonlRecorder(path) as rec:
        rec.emit({"kind": "a"})
    with JsonlRecorder(path) as rec2:
        rec2.emit({"kind": "b"})
    events = read_jsonl(path)
    assert [e["kind"] for e in events] == [SEGMENT_KIND, "a", SEGMENT_KIND, "b"]
    assert events[0]["resumed"] is False
    assert events[2]["resumed"] is True


def test_jsonl_recorder_resume_over_truncated_tail(tmp_path):
    """Appending after a mid-write crash must not glue the new segment
    header onto the dead writer's partial final line — that would turn
    a tolerable truncated tail into mid-file corruption read_jsonl
    refuses. The recorder drops the fragment (no complete event lost)
    and the journal stays fully parseable."""
    path = tmp_path / "trace.jsonl"
    path.write_text('{"kind":"s"}\n{"kind":"a"}\n{"kind":"b","x":')
    with JsonlRecorder(path) as rec:
        rec.emit({"kind": "c"})
    events, truncated = read_jsonl(path, return_truncated=True)
    assert truncated is False
    assert [e["kind"] for e in events] == ["s", "a", SEGMENT_KIND, "c"]
    assert events[2]["resumed"] is True


def test_read_jsonl_drops_truncated_final_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"kind":"a"}\n{"kind":"b"')  # writer died mid-line
    events, truncated = read_jsonl(path, return_truncated=True)
    assert [e["kind"] for e in events] == ["a"]
    assert truncated is True
    # Default signature stays a plain list for existing callers.
    assert [e["kind"] for e in read_jsonl(path)] == ["a"]


def test_read_jsonl_clean_file_reports_untruncated(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"kind":"a"}\n')
    events, truncated = read_jsonl(path, return_truncated=True)
    assert truncated is False and len(events) == 1


def test_read_jsonl_raises_on_mid_file_corruption(tmp_path):
    path = tmp_path / "trace.jsonl"
    path.write_text('{"kind":"a"}\n{oops\n{"kind":"b"}\n')
    with pytest.raises(json.JSONDecodeError):
        read_jsonl(path)
