"""Run reporting: trace aggregation, artifact export, table rendering.

Three layers:

* :func:`aggregate_trace` folds a trace's ``fetch``/``prefetch``/``batch``
  events and RPC spans into per-epoch totals that reproduce the trainer's
  :class:`~repro.train.metrics.EpochMetrics` numbers exactly (hit ratios
  from fetch sources; stage times from per-batch costs, and ``data_load``
  from the trainer's own :func:`~repro.train.metrics.data_load_seconds`
  over the ``io_workers``/``hit_latency_s`` recorded in ``run_start``,
  plus the RPC time shared by its ``world_size`` workers);
* :func:`write_run_artifacts` exports a finished run as ``epochs.jsonl``
  (one JSON object per epoch) and ``summary.json`` (run summary + metrics
  registry snapshot + provenance metadata) next to the optional
  ``trace.jsonl``;
* :func:`render_report` reads those artifacts back and renders the
  hit-rate / substitution / stage-time / elastic-ratio tables the
  ``repro report`` CLI prints — including a trace-vs-metrics consistency
  check when a trace is present.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.obs.critpath import critpath_lines
from repro.obs.trace import SEGMENT_KIND, read_jsonl
from repro.train.metrics import TrainResult, data_load_seconds

__all__ = [
    "EpochAggregate",
    "aggregate_trace",
    "write_run_artifacts",
    "render_report",
    "TRACE_FILE",
    "EPOCHS_FILE",
    "SUMMARY_FILE",
]

#: Spans whose time the shard tier charges to the RPC stage: every
#: attempt, and every retry backoff between attempts.
RPC_SPANS = ("rpc_attempt", "backoff")

TRACE_FILE = "trace.jsonl"
EPOCHS_FILE = "epochs.jsonl"
SUMMARY_FILE = "summary.json"


@dataclass
class EpochAggregate:
    """Per-epoch totals reconstructed from a trace.

    Mirrors the one-replica column of the epoch loop's stage accounting
    (``repro.train.trainer.EpochRunner._epoch_metrics``): degraded serves
    are tracked separately and excluded from ``requests``/``hit_ratio``
    (they are availability events, not cache performance).
    """

    epoch: int
    exact_hits: int = 0
    substitute_hits: int = 0
    misses: int = 0
    degraded_serves: int = 0
    skipped: int = 0
    prefetches: int = 0
    n_batches: int = 0
    n_samples: int = 0
    remote_latency_s: float = 0.0
    hit_serves: int = 0  # serves charged the in-memory hit latency
    rpc_s: float = 0.0  # shard-tier RPC time, summed over workers
    compute_s: float = 0.0
    preprocess_s: float = 0.0
    is_visible_s: float = 0.0
    data_load_s: float = 0.0  # derived by data_load_seconds

    @property
    def requests(self) -> int:
        """Cache requests entering the hit-ratio denominator."""
        return self.exact_hits + self.substitute_hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Total hit ratio including substitutions (degraded excluded)."""
        req = self.requests
        return (self.exact_hits + self.substitute_hits) / req if req else 0.0

    @property
    def substitute_ratio(self) -> float:
        """Substitution fraction of requests."""
        req = self.requests
        return self.substitute_hits / req if req else 0.0

    @property
    def epoch_time_s(self) -> float:
        """Fig.-2 stage sum (matches ``EpochMetrics.epoch_time_s``)."""
        return self.data_load_s + self.compute_s + self.is_visible_s + self.preprocess_s


def _replay_free(events: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The journal without replayed work: each ``restore`` event drops
    the events after the ``checkpoint`` event whose ``path`` it names
    (the run replays them from that checkpoint), and itself."""
    journal: List[Dict[str, Any]] = []
    for ev in events:
        if ev.get("kind") != "restore":
            journal.append(ev)
            continue
        saved = [
            i for i, e in enumerate(journal)
            if e.get("kind") == "checkpoint" and e.get("path") == ev.get("path")
        ]
        if saved:
            del journal[saved[-1] + 1:]
    return journal


def aggregate_trace(
    events: Union[str, Path, Iterable[Dict[str, Any]]],
) -> List[EpochAggregate]:
    """Fold trace events into per-epoch aggregates, ordered by epoch.

    ``io_workers``, ``hit_latency_s`` and ``world_size`` come from the
    trace's ``run_start`` event (``1`` / ``0.0`` / ``1`` without one).
    Replayed work after a checkpoint restore counts once
    (:func:`_replay_free`).
    """
    if isinstance(events, (str, Path)):
        events = read_jsonl(events)
    io_workers, hit_latency_s, world_size = 1, 0.0, 1
    per_epoch: Dict[int, EpochAggregate] = {}

    def agg(epoch: int) -> EpochAggregate:
        a = per_epoch.get(epoch)
        if a is None:
            a = per_epoch[epoch] = EpochAggregate(epoch=epoch)
        return a

    for ev in _replay_free(events):
        kind = ev.get("kind")
        if kind == "run_start":
            io_workers = int(ev.get("io_workers", io_workers))
            hit_latency_s = float(ev.get("hit_latency_s", hit_latency_s))
            world_size = int(ev.get("world_size", world_size))
            continue
        a = agg(int(ev.get("epoch", -1)))
        if kind == "fetch":
            src = ev["source"]
            if src == "importance":
                a.exact_hits += 1
                a.hit_serves += 1
            elif src in ("homophily", "l_section"):
                if ev["served_id"] == ev["requested_id"]:
                    a.exact_hits += 1
                else:
                    a.substitute_hits += 1
                a.hit_serves += 1
            elif src == "remote":
                a.misses += 1
                a.remote_latency_s += float(ev.get("latency_s", 0.0))
            elif src == "degraded":
                a.degraded_serves += 1
                a.hit_serves += 1
            elif src == "skipped":
                a.misses += 1
                a.skipped += 1
        elif kind == "prefetch":
            a.prefetches += 1
            a.remote_latency_s += float(ev.get("latency_s", 0.0))
        elif kind == "batch":
            a.n_batches += 1
            a.n_samples += int(ev.get("size", 0))
            a.compute_s += float(ev.get("compute_s", 0.0))
            a.preprocess_s += float(ev.get("preprocess_s", 0.0))
            a.is_visible_s += float(ev.get("is_visible_s", 0.0))
        elif kind == "span" and ev.get("name") in RPC_SPANS:
            a.rpc_s += float(ev["t1_s"]) - float(ev["t0_s"])

    out = [per_epoch[e] for e in sorted(per_epoch) if e >= 0]
    for a in out:
        a.data_load_s = data_load_seconds(
            a.remote_latency_s, a.hit_serves, io_workers, hit_latency_s,
        ) + a.rpc_s / world_size
    return out


# ----------------------------------------------------------------------
def write_run_artifacts(
    result: TrainResult,
    out_dir: Union[str, Path],
    metrics_snapshot: Optional[Dict[str, Any]] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Path:
    """Export a run as ``epochs.jsonl`` + ``summary.json`` under ``out_dir``.

    Returns the output directory. ``metrics_snapshot`` is an
    :meth:`~repro.obs.observer.Observer.snapshot`; ``meta`` holds
    provenance (seed, argv, preset) for the reproducibility report.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_info = {
        "policy": result.policy_name,
        "model": result.model_name,
        "dataset": result.dataset_name,
    }
    with (out / EPOCHS_FILE).open("w") as fh:
        for e in result.epochs:
            row = dict(run_info)
            row.update(dataclasses.asdict(e))
            json.dump(row, fh, separators=(",", ":"))
            fh.write("\n")
    summary = dict(run_info)
    summary["summary"] = result.summary() if result.epochs else {}
    if metrics_snapshot is not None:
        summary["metrics"] = metrics_snapshot
    if meta is not None:
        summary["meta"] = meta
    (out / SUMMARY_FILE).write_text(json.dumps(summary, indent=2, sort_keys=True))
    return out


# ----------------------------------------------------------------------
def _fmt(value: Any, spec: str) -> str:
    """Format one table cell, mapping ``None`` to a dash."""
    if value is None:
        return "-"
    return format(value, spec)


def _epoch_rows(epochs: List[Dict[str, Any]]) -> List[str]:
    """Render the per-epoch hit-rate / stage-time table."""
    header = (
        f"{'epoch':>5} {'acc':>7} {'hit':>6} {'exact':>6} {'subst':>6} "
        f"{'load_s':>8} {'comp_s':>8} {'is_s':>7} {'prep_s':>7} "
        f"{'time_s':>8} {'imp_r':>6}"
    )
    lines = [header, "-" * len(header)]
    for e in epochs:
        lines.append(
            f"{e['epoch']:>5} {_fmt(e.get('val_accuracy'), '.3f'):>7} "
            f"{_fmt(e.get('hit_ratio'), '.3f'):>6} "
            f"{_fmt(e.get('exact_hit_ratio'), '.3f'):>6} "
            f"{_fmt(e.get('substitute_ratio'), '.3f'):>6} "
            f"{_fmt(e.get('data_load_s'), '.3f'):>8} "
            f"{_fmt(e.get('compute_s'), '.3f'):>8} "
            f"{_fmt(e.get('is_visible_s'), '.3f'):>7} "
            f"{_fmt(e.get('preprocess_s', 0.0), '.3f'):>7} "
            f"{_fmt(e.get('epoch_time_s'), '.3f'):>8} "
            f"{_fmt(e.get('imp_ratio'), '.3f'):>6}"
        )
    return lines


def _trace_section(trace_path: Path, epochs: List[Dict[str, Any]]) -> List[str]:
    """Render trace-derived tables plus the consistency check."""
    events, truncated = read_jsonl(trace_path, return_truncated=True)
    lines: List[str] = []
    by_kind: Dict[str, int] = {}
    for ev in events:
        by_kind[ev.get("kind", "?")] = by_kind.get(ev.get("kind", "?"), 0) + 1
    lines.append(f"trace: {len(events)} events "
                 f"({', '.join(f'{k}={v}' for k, v in sorted(by_kind.items()))})")
    segments = by_kind.get(SEGMENT_KIND, 0)
    if segments > 1:
        lines.append(
            f"  stitched from {segments} segments (resumed/appended run)"
        )
    if truncated:
        lines.append(
            "  note: final trace line was truncated mid-write and dropped"
        )

    elastic = [e for e in events if e.get("kind") == "elastic"]
    if elastic:
        lines.append("elastic decisions (epoch beta u imp_ratio):")
        for ev in elastic:
            lines.append(
                f"  {ev['decision_epoch']:>4} {ev['beta']:>2} "
                f"{ev['u']:>6.3f} {ev['imp_ratio']:>6.3f}"
            )
    breaker = [e for e in events if e.get("kind") == "breaker"]
    if breaker:
        lines.append("breaker transitions:")
        for ev in breaker:
            lines.append(f"  t={ev['at_s']:>9.3f}s {ev['old']} -> {ev['new']}")
    # Attempt spans tag which carrier served them (sim oracle vs real
    # worker processes), so a trace is self-describing about its mode.
    # Only the ``rpc_attempt`` leaves count: the enclosing logical ``rpc``
    # span carries the tag too and would double every attempt.
    rpc_by_transport: Dict[str, int] = {}
    for ev in events:
        if ev.get("kind") == "span" and "transport" in ev \
                and ev.get("name") == "rpc_attempt":
            t = str(ev["transport"])
            rpc_by_transport[t] = rpc_by_transport.get(t, 0) + 1
    if rpc_by_transport:
        lines.append(
            "rpc transport: "
            + "  ".join(f"{k}={v} attempt(s)"
                        for k, v in sorted(rpc_by_transport.items()))
        )
    degraded = sum(
        1 for e in events
        if e.get("kind") == "fetch" and e.get("source") == "degraded"
    )
    skipped = sum(
        1 for e in events
        if e.get("kind") == "fetch" and e.get("source") == "skipped"
    )
    if degraded or skipped:
        lines.append(f"degraded serving: {degraded} substituted, {skipped} skipped "
                     "(excluded from hit ratios)")
    l_section = [
        e for e in events
        if e.get("kind") == "fetch" and e.get("source") == "l_section"
    ]
    if l_section:
        random = sum(e["served_id"] != e["requested_id"] for e in l_section)
        lines.append(f"l-section serves: {len(l_section) - random} exact, "
                     f"{random} random substitutes")
    audits = [e for e in events if e.get("kind") == "audit"]
    if audits:
        by_action: Dict[str, int] = {}
        for ev in audits:
            k = f"{ev.get('action', '?')}/{ev.get('layer', '?')}"
            by_action[k] = by_action.get(k, 0) + 1
        lines.append(
            "cache decisions (audit): "
            + "  ".join(f"{k}={v}" for k, v in sorted(by_action.items()))
        )

    cp = critpath_lines(events)
    if cp:
        lines.append("critical path (per-group self-time):")
        lines.extend(cp)

    shard_events = [e for e in events if e.get("kind") == "shards"]
    if shard_events:
        # Per-epoch snapshots are cumulative; the last one is the run's
        # final shard-service state. One column group per cache layer the
        # snapshots carry: occupancy, hits, substitute hits.
        final = shard_events[-1].get("shards", [])
        layers = [k[:-4] for k in (final[0] if final else {}) if k.endswith("_len")]
        header = f"  {'shard':>5}" + "".join(
            f" {layer:>5} {layer + '_hit':>8} {layer + '_sub':>8}" for layer in layers
        ) + f" {'rpc':>7} {'fail':>5} {'drops':>5} {'breaker':>9}"
        lines.append("shards (final state):")
        lines.append(header)
        for s in final:
            lines.append(
                f"  {s.get('shard', '?'):>5}" + "".join(
                    f" {s.get(layer + '_len', 0):>5} {s.get(layer + '_hits', 0):>8} "
                    f"{s.get(layer + '_substitute_hits', 0):>8}"
                    for layer in layers
                )
                + f" {s.get('rpc_calls', 0):>7} "
                f"{s.get('rpc_failures', 0) + s.get('rpc_fast_failures', 0):>5} "
                f"{s.get('dropped_admits', 0):>5} "
                f"{s.get('breaker', '?'):>9}"
            )

    if not epochs:
        return lines  # no per-epoch metrics to check against

    # A multi-worker run divides its stage times across workers, so only
    # the ratios are derivable from the flat fetch stream there (a shard
    # tier's RPC time comes from its spans).
    run_start = next((e for e in events if e.get("kind") == "run_start"), {})
    multi_worker = int(run_start.get("world_size", 1)) > 1
    fields = ["hit_ratio", "substitute_ratio"]
    if not multi_worker:
        fields += ["data_load_s", "compute_s", "is_visible_s", "epoch_time_s"]
    aggs = {a.epoch: a for a in aggregate_trace(events)}
    worst = 0.0
    checked = 0
    for e in epochs:
        a = aggs.get(e["epoch"])
        if a is None:
            continue
        checked += 1
        for name in fields:
            if e.get(name) is not None:
                worst = max(worst, abs(getattr(a, name) - float(e[name])))
    status = "OK" if worst < 1e-6 else f"MISMATCH (max abs err {worst:.3e})"
    note = (
        " (hit and substitute ratios; stage times skipped: a multi-worker "
        "run divides them across workers)" if multi_worker else ""
    )
    lines.append(
        f"trace vs per-epoch metrics: {status} over {checked} epoch(s){note}"
    )
    return lines


def render_report(run_dir: Union[str, Path]) -> str:
    """Render the full ``repro report`` text for one run directory.

    Expects ``epochs.jsonl`` from a training run plus optional
    ``summary.json`` and ``trace.jsonl`` as written by
    :func:`write_run_artifacts` and a
    :class:`~repro.obs.trace.JsonlRecorder`.
    """
    run_dir = Path(run_dir)
    epochs_path = run_dir / EPOCHS_FILE
    if not epochs_path.is_file():
        raise FileNotFoundError(
            f"{epochs_path} not found — export a run with "
            "`repro train --trace-dir` or write_run_artifacts()"
        )
    epochs = read_jsonl(epochs_path)
    lines: List[str] = []
    if epochs:
        head = epochs[0]
        lines.append(
            f"run: policy={head.get('policy', '?')} model={head.get('model', '?')} "
            f"dataset={head.get('dataset', '?')} epochs={len(epochs)}"
        )
    lines.extend(_epoch_rows(epochs))

    # The stage terms of EpochMetrics' five-term identity, then their sum.
    # comm_s (the gradient all-reduce) is zero for one replica and only
    # printed when a run has it; an export that predates the field
    # carries it inside epoch_time_s alone, so there it is the residual.
    stages = ("data_load_s", "compute_s", "is_visible_s", "preprocess_s")

    def stage_sum(e: Dict[str, Any]) -> float:
        return sum(float(e.get(k, 0.0) or 0.0) for k in stages)

    totals = {
        k: sum(float(e.get(k, 0.0) or 0.0) for e in epochs) for k in stages
    }
    comm_s = sum(
        float(e["comm_s"]) if "comm_s" in e
        else float(e.get("epoch_time_s", 0.0)) - stage_sum(e)
        for e in epochs
    )
    if comm_s:
        totals["comm_s"] = comm_s
    totals["epoch_time_s"] = sum(
        float(e.get("epoch_time_s", 0.0)) for e in epochs
    )
    lines.append(
        "stage totals: "
        + "  ".join(f"{k}={v:.3f}" for k, v in totals.items())
    )

    summary_path = run_dir / SUMMARY_FILE
    if summary_path.is_file():
        summary = json.loads(summary_path.read_text())
        counters = summary.get("metrics", {}).get("counters", {})
        if counters:
            lines.append(
                "counters: "
                + "  ".join(f"{k}={v}" for k, v in sorted(counters.items()))
            )
        meta = summary.get("meta")
        if meta:
            lines.append(
                "repro: "
                + "  ".join(f"{k}={v}" for k, v in sorted(meta.items()))
            )

    trace_path = run_dir / TRACE_FILE
    if trace_path.is_file():
        lines.extend(_trace_section(trace_path, epochs))
    return "\n".join(lines)
