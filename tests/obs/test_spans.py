"""Span tracker determinism and trace-reconstruction tests."""

from collections import Counter

from repro.cli import main
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.spans import SpanTracker, build_span_forest, span_seed_from
from repro.obs.trace import InMemoryRecorder, read_jsonl


def _tracker(seed=7):
    events = []

    def emit(kind, **fields):
        events.append(dict(kind=kind, **fields))

    return SpanTracker(seed, emit), events


def test_trace_id_is_deterministic_per_seed():
    t1, _ = _tracker(7)
    t2, _ = _tracker(7)
    t3, _ = _tracker(8)
    assert t1.trace_id == t2.trace_id == "254f20d698982ebc"
    assert t3.trace_id != t1.trace_id
    assert len(t1.trace_id) == 16
    assert span_seed_from(7) == int(t1.trace_id, 16)


def test_same_seed_emits_byte_identical_events():
    def run(tracker):
        outer = tracker.start("epoch", 0.0)
        inner = tracker.start("batch", 0.1, slot=3)
        tracker.record("data_load", 0.1, 0.2, slot=3)
        tracker.finish(inner, 0.5)
        tracker.finish(outer, 1.0, batches=1)

    t1, ev1 = _tracker(7)
    t2, ev2 = _tracker(7)
    run(t1)
    run(t2)
    assert ev1 == ev2
    assert len(ev1) == 3
    assert all(e["kind"] == "span" for e in ev1)


def test_parent_child_linkage_and_emit_order():
    tracker, events = _tracker()
    outer = tracker.start("epoch", 0.0)
    inner = tracker.start("batch", 0.1)
    assert tracker.current_id() == inner.span_id
    tracker.finish(inner, 0.4)
    tracker.finish(outer, 1.0)
    # Children close (and so emit) before parents.
    assert [e["name"] for e in events] == ["batch", "epoch"]
    assert events[0]["parent"] == outer.span_id
    assert events[1]["parent"] is None
    assert events[0]["trace"] == events[1]["trace"] == tracker.trace_id


def test_record_leaf_inherits_innermost_parent():
    tracker, events = _tracker()
    outer = tracker.start("batch", 0.0)
    tracker.record("compute", 0.0, 0.2, slot=1)
    tracker.finish(outer, 0.3)
    leaf = events[0]
    assert leaf["name"] == "compute"
    assert leaf["parent"] == outer.span_id
    assert leaf["slot"] == 1
    # No parent when the stack is empty.
    tracker.record("orphan", 1.0, 1.1)
    assert events[-1]["parent"] is None


def test_out_of_order_finish_closes_descendants():
    tracker, events = _tracker()
    outer = tracker.start("run", 0.0)
    mid = tracker.start("epoch", 0.1)
    tracker.start("batch", 0.2)  # never finished explicitly
    tracker.finish(outer, 2.0)  # error path: close the root directly
    assert [e["name"] for e in events] == ["batch", "epoch", "run"]
    # Descendants are closed at the same instant as the forced finish.
    assert all(e["t1_s"] == 2.0 for e in events)
    assert tracker.current_id() is None
    assert mid.span_id == events[1]["id"]


def test_build_span_forest_links_any_order():
    tracker, events = _tracker()
    outer = tracker.start("epoch", 0.0)
    inner = tracker.start("batch", 0.1)
    tracker.record("data_load", 0.1, 0.15)
    tracker.finish(inner, 0.4)
    tracker.finish(outer, 1.0)
    # File order has parents last; shuffle harder to prove order-free.
    roots, by_id = build_span_forest(reversed(events))
    assert len(roots) == 1 and len(by_id) == 3
    root = roots[0]
    assert root.name == "epoch" and root.dur_s == 1.0
    assert [c.name for c in root.children] == ["batch"]
    assert [c.name for c in root.children[0].children] == ["data_load"]


def test_build_span_forest_orphans_become_roots():
    events = [
        {"kind": "span", "id": "aa", "parent": "missing", "name": "batch",
         "t0_s": 0.5, "t1_s": 0.9},
        {"kind": "span", "id": "bb", "parent": None, "name": "epoch",
         "t0_s": 0.0, "t1_s": 1.0},
        {"kind": "fetch", "epoch": 0},  # non-span events are ignored
    ]
    roots, by_id = build_span_forest(events)
    assert {r.name for r in roots} == {"epoch", "batch"}
    assert len(by_id) == 2


def test_observer_stamps_flat_events_with_ambient_span():
    rec = InMemoryRecorder()
    obs = Observer(recorder=rec, metrics=MetricsRegistry(), span_seed=7)
    span = obs.span_start("fetch", 0.0, requested_id=3)
    obs.on_breaker("closed", "open", 0.1, where="shard0")
    obs.span_end(span, 0.2)
    breaker = [e for e in rec.events if e["kind"] == "breaker"][0]
    assert breaker["trace"] == obs.spans.trace_id
    assert breaker["span"] == span.span_id
    # The span event itself is not double-stamped by Observer.emit.
    span_ev = [e for e in rec.events if e["kind"] == "span"][0]
    assert span_ev["id"] == span.span_id


def test_sharded_run_span_ids_are_unique_and_parents_resolve(tmp_path):
    """A node the homophily layer evicted is put again, and each ``put``
    span still gets its own ID, so no span drops out of the forest and
    every child hangs under exactly one parent."""
    assert main([
        "train", "--policy", "spidercache", "--samples", "120",
        "--epochs", "3", "--batch-size", "32", "--seed", "7",
        "--world-size", "2", "--shared-cache", "--cache-shards", "2",
        "--trace-dir", str(tmp_path),
    ]) == 0
    events = read_jsonl(tmp_path / "trace.jsonl")
    inserted = Counter(e["key"] for e in events
                       if e["kind"] == "homophily_insert")
    assert max(inserted.values()) > 1  # the recipe re-puts a node
    spans = [e for e in events if e["kind"] == "span"]
    ids = Counter(e["id"] for e in spans)
    assert [i for i, n in ids.items() if n > 1] == []
    parents = [e["parent"] for e in spans if e["parent"] is not None]
    assert parents and all(ids[p] == 1 for p in parents)
