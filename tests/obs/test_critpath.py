"""Critical-path analyzer tests: exact tiling, breakdowns, report rows."""

import pytest

from repro.obs.critpath import (
    critical_path,
    critpath_lines,
    self_time_breakdown,
)
from repro.obs.spans import build_span_forest


def _span(sid, parent, name, t0, t1, **attrs):
    return dict(
        kind="span", trace="t", id=sid, parent=parent, name=name,
        t0_s=t0, t1_s=t1, **attrs,
    )


def _root(events):
    roots, _ = build_span_forest(events)
    assert len(roots) == 1
    return roots[0]


def test_leaf_root_is_all_self_time():
    root = _root([_span("r", None, "epoch", 0.0, 2.0)])
    segs = critical_path(root)
    assert segs == [(root, 0.0, 2.0)]


def test_segments_exactly_tile_the_root():
    root = _root([
        _span("r", None, "epoch", 0.0, 1.0),
        _span("a", "r", "batch", 0.1, 0.4),
        _span("b", "r", "batch", 0.5, 0.9),
        _span("c", "a", "compute", 0.2, 0.4),
    ])
    segs = critical_path(root)
    # Earliest first, contiguous, covering [t0, t1] exactly.
    assert segs[0][1] == 0.0 and segs[-1][2] == 1.0
    for (_, _, hi), (_, lo, _) in zip(segs, segs[1:]):
        assert hi == pytest.approx(lo)
    assert sum(hi - lo for _, lo, hi in segs) == pytest.approx(root.dur_s)
    names = [(n.name, lo, hi) for n, lo, hi in segs]
    assert names == [
        ("epoch", 0.0, 0.1),     # gap before first batch
        ("batch", 0.1, 0.2),     # a's own lead-in
        ("compute", 0.2, 0.4),   # a's child bounds its tail
        ("epoch", 0.4, 0.5),     # gap between batches
        ("batch", 0.5, 0.9),     # b, no children
        ("epoch", 0.9, 1.0),     # tail
    ]


def test_overlapping_children_attribute_to_last_finisher():
    root = _root([
        _span("r", None, "window", 0.0, 1.0),
        _span("a", "r", "fetch", 0.0, 0.6),
        _span("b", "r", "fetch", 0.3, 1.0),
    ])
    segs = critical_path(root)
    names = [(n.event["id"], lo, hi) for n, lo, hi in segs]
    # b bounds the tail back to its start; a only the uncovered prefix.
    assert names == [("a", 0.0, 0.3), ("b", 0.3, 1.0)]


def test_children_clipped_to_parent_interval():
    root = _root([
        _span("r", None, "epoch", 0.0, 1.0),
        _span("a", "r", "batch", -0.5, 1.5),  # corrupt: exceeds parent
    ])
    segs = critical_path(root)
    assert segs == [(root.children[0], 0.0, 1.0)]


def test_zero_length_spans_contribute_nothing():
    root = _root([
        _span("r", None, "epoch", 0.0, 1.0),
        _span("a", "r", "batch", 0.5, 0.5),
    ])
    segs = critical_path(root)
    assert [(n.name, lo, hi) for n, lo, hi in segs] == [("epoch", 0.0, 1.0)]


def test_self_time_breakdown_sums_and_sorts():
    root = _root([
        _span("r", None, "epoch", 0.0, 1.0),
        _span("a", "r", "batch", 0.0, 0.3),
        _span("b", "r", "batch", 0.5, 0.9),
    ])
    breakdown = self_time_breakdown(critical_path(root))
    assert breakdown == {"batch": pytest.approx(0.7),
                         "epoch": pytest.approx(0.3)}
    assert list(breakdown) == ["batch", "epoch"]  # descending self time


def test_critpath_lines_groups_by_epoch():
    events = [
        _span("r", None, "run", 0.0, 2.0),
        _span("e0", "r", "epoch", 0.0, 1.0, epoch=0),
        _span("e1", "r", "epoch", 1.0, 2.0, epoch=1),
        _span("b0", "e0", "batch", 0.0, 0.8),
        _span("b1", "e1", "batch", 1.0, 1.5),
    ]
    lines = critpath_lines(events)
    assert len(lines) == 3  # one per epoch + the total row
    assert lines[0].startswith("  epoch 0")
    assert "batch 0.8000s (80%)" in lines[0]
    assert lines[1].startswith("  epoch 1")
    assert lines[2].startswith("  total 2 epoch(s) 2.0000s:")
    assert "batch 1.3000s (65%)" in lines[2]


def test_critpath_lines_analyzes_the_roots_without_epochs():
    events = [
        _span("r", None, "run", 0.0, 1.0),
        _span("f", "r", "fetch", 0.2, 0.9),
    ]
    lines = critpath_lines(events)
    assert lines[0].startswith("  run 0")
    assert "fetch 0.7000s (70%)" in lines[0]


def test_critpath_lines_caps_rows():
    events = [_span("r", None, "run", 0.0, 16.0)]
    for i in range(16):
        events.append(
            _span(f"e{i}", "r", "epoch", float(i), float(i + 1), epoch=i)
        )
    lines = critpath_lines(events)
    assert lines[8] == "  ... 8 more"
    assert lines[9].startswith("  total 16 epoch(s)")


def test_critpath_lines_empty_without_spans():
    assert critpath_lines([{"kind": "fetch", "epoch": 0}]) == []
