"""Critical-path analysis over reconstructed span trees.

Answers "what actually bounds epoch time?". For each root
span, walk backwards from its end: the child that finishes last before
the cursor is on the critical path; recurse into it, then continue from
its start. Intervals not covered by any child are the parent's *self
time* — for a batch span that's scheduling overhead, for an rpc span
it's retry backoff. The result is a set of segments that exactly tile
``[t0, t1]`` of the root, each attributed to the deepest span active on
the bounding chain, which aggregates into the per-stage breakdown
``repro report`` renders.

This is the standard trace-analysis algorithm (Jaeger's "critical path"
tab); with the repo's simulated clock the tiling is exact rather than
approximate, so segment sums are asserted, not eyeballed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.obs.spans import SpanNode, build_span_forest

__all__ = [
    "Segment",
    "critical_path",
    "self_time_breakdown",
    "critpath_lines",
]

#: Names shown per breakdown before the rest are counted as ``+N more``.
TOP_NAMES = 4
#: Group rows shown before the rest are counted as ``... N more``.
MAX_ROWS = 8

#: One critical-path segment: (span, seg_start_s, seg_end_s). The span is
#: the deepest node whose own execution bounds that interval.
Segment = Tuple[SpanNode, float, float]


def critical_path(root: SpanNode) -> List[Segment]:
    """Segments tiling ``[root.t0_s, root.t1_s]``, earliest first.

    Children extending past their parent (possible only with clipped /
    corrupt traces) are clipped to the parent's interval; zero-length
    spans contribute no segments.
    """
    segments: List[Segment] = []
    _walk(root, root.t0_s, root.t1_s, segments)
    segments.reverse()  # _walk appends latest-first
    return segments


def _walk(node: SpanNode, lo: float, hi: float, out: List[Segment]) -> None:
    """Attribute ``[lo, hi]`` to ``node``'s children and self, latest first."""
    cursor = hi
    # Last-finishing child first; ties broken by later start then id so
    # the path is deterministic for back-to-back zero-length spans.
    for child in sorted(
        node.children,
        key=lambda c: (c.t1_s, c.t0_s, c.span_id),
        reverse=True,
    ):
        c_end = min(child.t1_s, cursor)
        c_start = max(child.t0_s, lo)
        if c_end <= c_start:
            continue  # shadowed by a later sibling, or outside the clip
        if c_end < cursor:
            out.append((node, c_end, cursor))  # parent self time (gap)
        _walk(child, c_start, c_end, out)
        cursor = c_start
        if cursor <= lo:
            return
    if cursor > lo:
        out.append((node, lo, cursor))


def self_time_breakdown(segments: Iterable[Segment]) -> Dict[str, float]:
    """Total critical-path self time per span name, descending."""
    totals: Dict[str, float] = {}
    for node, lo, hi in segments:
        totals[node.name] = totals.get(node.name, 0.0) + (hi - lo)
    return dict(sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])))


def _fmt_breakdown(total: float, breakdown: Dict[str, float]) -> str:
    parts = []
    for name, secs in list(breakdown.items())[:TOP_NAMES]:
        pct = 100.0 * secs / total if total > 0 else 0.0
        parts.append("%s %.4fs (%.0f%%)" % (name, secs, pct))
    rest = list(breakdown.items())[TOP_NAMES:]
    if rest:
        parts.append("+%d more" % len(rest))
    return ", ".join(parts) if parts else "(empty)"


def critpath_lines(events: Iterable[Dict]) -> List[str]:
    """The ``repro report`` critical-path section body (no header).

    One row per ``epoch`` span plus an all-epochs aggregate; a trace
    without epoch spans is analyzed per root. Returns ``[]`` when the
    trace has no span events — the report omits the section for
    pre-span traces.
    """
    roots, by_id = build_span_forest(events)
    if not by_id:
        return []
    epochs = sorted(
        (n for n in by_id.values() if n.name == "epoch"),
        key=lambda n: (n.t0_s, n.span_id),
    )
    group_name = "epoch" if epochs else "root"
    groups = epochs or roots
    lines: List[str] = []
    combined: Dict[str, float] = {}
    combined_total = 0.0
    n_shown = min(len(groups), MAX_ROWS)
    for i, g in enumerate(groups):
        segs = critical_path(g)
        breakdown = self_time_breakdown(segs)
        combined_total += g.dur_s
        for name, secs in breakdown.items():
            combined[name] = combined.get(name, 0.0) + secs
        if i < n_shown:
            idx = g.event.get(g.name, i)  # e.g. {"epoch": 0}
            lines.append(
                "  %s %-3s %.4fs: %s"
                % (g.name, idx, g.dur_s, _fmt_breakdown(g.dur_s, breakdown))
            )
    if len(groups) > n_shown:
        lines.append("  ... %d more" % (len(groups) - n_shown))
    if len(groups) > 1:
        ordered = dict(sorted(combined.items(), key=lambda kv: (-kv[1], kv[0])))
        lines.append(
            "  total %d %s(s) %.4fs: %s"
            % (
                len(groups),
                group_name,
                combined_total,
                _fmt_breakdown(combined_total, ordered),
            )
        )
    return lines
