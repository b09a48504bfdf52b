"""Where the traced pass puts its wrappers, and the per-layer rows they give.

Layers are the repo's modules: ``data`` (loader), ``core`` (semantic
cache, scorer, policy, sampler, elastic manager), ``storage``
(RemoteStore), ``nn``, ``ann`` (BruteForceIndex / HNSWIndex), ``dist``
(ShardedCacheClient, Transport), ``obs`` (the program's recorder) and
``train`` (the epoch loop: the residual no other row claims).

Every row is emitted on every workload; a layer the workload does not
run reports 0 for all its rows, which is the "does nothing here" half of
the mechanism/bypass pairing the README's interaction table relies on.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from perfbench.tracer import ROOT_SPAN, SpanTable, Tracer
from perfbench.workloads import Stack

# Rank 0's collate marks the start of a training step; the other
# data-parallel ranks collate under a second name so steps stay countable.
COLLATE = "data.collate"
COLLATE_PEER = "data.collate.peer"


def install(tracer: Tracer, stack: Stack) -> Optional["ExactShadow"]:
    """Wrap each layer's public calls on the instances ``stack`` holds.

    Returns the exact-scorer shadow when the stack runs the HNSW backend
    (it records what the live index answered; see :class:`ExactShadow`).
    """
    for rank, rep in enumerate(stack.replicas):
        tracer.wrap(rep.loader, "collate", COLLATE if rank == 0 else COLLATE_PEER)
        tracer.wrap(rep.model, "train_batch", "nn.train_batch")
        tracer.wrap(rep.optimizer, "step", "nn.optim_step")
    tracer.wrap(stack.replicas[0].model, "evaluate", "nn.evaluate")
    tracer.wrap(stack.store, "get", "storage.get")

    policy = stack.policy
    tracer.wrap(policy, "epoch_order", "core.epoch_order")
    tracer.wrap(policy, "after_batch", "core.after_batch")
    tracer.wrap(policy, "after_epoch", "core.after_epoch")
    scorer = policy.scorer
    tracer.wrap(scorer, "score_batch", "core.score_batch")
    tracer.wrap(
        scorer, "update_embeddings", "ann.update",
        count=lambda args, kwargs: len(args[0]),
    )
    tracer.wrap(
        scorer.index, "neighbors_within_batch", "ann.query",
        count=lambda args, kwargs: len(args[0]),
    )

    client = stack.client
    if client is None:
        tracer.wrap(policy.cache, "fetch", "core.fetch")
    else:
        tracer.wrap(client, "fetch", "dist.fetch")
        tracer.wrap(client, "update_score", "dist.update")
        tracer.wrap(client, "update_homophily", "dist.update")
        tracer.wrap(
            client.transport, "call", "dist.rpc",
            count=lambda args, kwargs: kwargs.get("nbytes", 0),
        )
    if stack.observer is not None:
        tracer.wrap(stack.observer.recorder, "emit", "obs.record")

    if scorer.backend != "hnsw":
        return None
    shadow = ExactShadow(scorer)
    timed_score_batch = scorer.score_batch

    def score_and_record(indices, embeddings):
        scores = timed_score_batch(indices, embeddings)
        shadow.record(indices, embeddings, scores)
        return scores

    scorer.score_batch = score_and_record
    return shadow


class ExactShadow:
    """What an exact scorer would have answered, batch by batch.

    During ``run()`` only references are kept (ids, a copy of the
    embeddings, the HNSW scorer's answer). :meth:`replay` feeds the same
    sequence to a ``backend="exact"`` scorer *after* the run, so its cost
    lands in no span and not in the run's wall.
    """

    def __init__(self, scorer: Any) -> None:
        from repro.core.graph_is import GraphImportanceScorer

        self._exact = GraphImportanceScorer(
            dim=scorer.index.dim, labels=scorer.labels, lam=scorer.lam,
            alpha=scorer.alpha, neighbormax=scorer.neighbormax, backend="exact",
        )
        self._batches: List[Tuple[np.ndarray, np.ndarray, list]] = []

    def record(self, indices, embeddings, scores) -> None:
        """Keep one batch's inputs and the live scorer's answer."""
        self._batches.append((np.array(indices), np.array(embeddings), scores))

    def replay(self) -> Dict[str, float]:
        """Recall and score error of the recorded answers vs exact."""
        from time import perf_counter

        found = expected = scored = 0
        abs_err = 0.0
        t0 = perf_counter()
        for indices, embeddings, approx in self._batches:
            exact = self._exact.score_batch(indices, embeddings)
            for a, e in zip(approx, exact):
                expected += e.neighbor_ids.size
                found += np.intersect1d(a.neighbor_ids, e.neighbor_ids).size
                abs_err += abs(a.score - e.score)
            scored += len(exact)
        return {
            "ann.neighbor_recall": found / expected if expected else 1.0,
            "ann.score_mae_vs_exact": abs_err / max(scored, 1),
            "ann.exact_shadow_s": perf_counter() - t0,
        }


#: Rows of the HNSW-only shadow on workloads that have no HNSW index.
NO_SHADOW = {
    "ann.neighbor_recall": 0.0,
    "ann.score_mae_vs_exact": 0.0,
    "ann.exact_shadow_s": 0.0,
}


def tail(values: np.ndarray) -> Tuple[float, float]:
    """``(percentile, value)``: the highest percentile of the ladder that
    still has at least ten samples beyond it (the median if none has)."""
    for pct in (99.0, 95.0, 90.0, 75.0):
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            return pct, float(np.percentile(values, pct))
    return 50.0, _pct(values, 50)


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    table: SpanTable, tracer: Tracer, stack: Stack
) -> Dict[str, float]:
    """Per-layer rows from one traced ``run()`` (setup, shadow, host and
    cross-pass rows are added by the caller)."""
    wall = table.total_s(ROOT_SPAN)
    samples = stack.n_train * stack.epochs
    stats = stack.policy.stats()
    counts = tracer.counts
    m: Dict[str, float] = {}

    collate = (COLLATE, COLLATE_PEER)
    m["data.collate_self_s"] = table.self_time_s(*collate)
    m["data.batches"] = table.calls(*collate)

    fetch_us = table.durations("core.fetch", "dist.fetch") * 1e6
    m["core.fetch_self_s"] = table.self_time_s("core.fetch")
    m["core.fetch_calls"] = len(fetch_us)
    m["core.fetch_us_p50"] = _pct(fetch_us, 50)
    m["core.fetch_us_p99"] = _pct(fetch_us, 99)
    m["core.exact_hit_share"] = _ratio(stats.hits, stats.requests)
    m["core.substitute_share"] = _ratio(stats.substitute_hits, stats.requests)
    m["core.score_batch_self_s"] = table.self_time_s("core.score_batch")
    m["core.after_batch_self_s"] = table.self_time_s("core.after_batch")
    m["core.epoch_order_s"] = table.total_s("core.epoch_order")
    m["core.after_epoch_s"] = table.total_s("core.after_epoch")

    m["storage.get_s"] = table.total_s("storage.get")
    m["storage.get_calls"] = table.calls("storage.get")

    m["nn.train_batch_s"] = table.total_s("nn.train_batch")
    m["nn.train_batch_ms_p50"] = _pct(table.durations("nn.train_batch") * 1e3, 50)
    m["nn.optim_step_s"] = table.total_s("nn.optim_step")
    m["nn.evaluate_s"] = table.total_s("nn.evaluate")

    query_ms = table.durations("ann.query") * 1e3
    query_pct, query_tail = tail(query_ms)
    m["ann.update_s"] = table.total_s("ann.update")
    m["ann.update_vecs"] = counts["ann.update"]
    m["ann.update_vecs_per_s"] = _ratio(counts["ann.update"], m["ann.update_s"])
    m["ann.query_s"] = table.total_s("ann.query")
    m["ann.query_rows"] = counts["ann.query"]
    m["ann.query_rows_per_s"] = _ratio(counts["ann.query"], m["ann.query_s"])
    m["ann.query_ms_p50"] = _pct(query_ms, 50)
    m["ann.query_ms_tail"] = query_tail
    m["ann.query_tail_pct"] = query_pct
    m["ann.index_size"] = len(stack.policy.scorer.index)

    rtt_us = table.durations("dist.rpc") * 1e6
    m["dist.fetch_self_s"] = table.self_time_s("dist.fetch")
    m["dist.update_self_s"] = table.self_time_s("dist.update")
    m["dist.rpc_s"] = table.total_s("dist.rpc")
    m["dist.rpc_calls"] = len(rtt_us)
    m["dist.rpc_per_sample"] = len(rtt_us) / samples
    m["dist.rpc_rtt_us_p50"] = _pct(rtt_us, 50)
    m["dist.rpc_rtt_us_p99"] = _pct(rtt_us, 99)
    m["dist.rpc_failed"] = tracer.errors["dist.rpc"]
    m["dist.payload_bytes_per_sample"] = counts["dist.rpc"] / samples

    m["obs.record_s"] = table.total_s("obs.record")
    m["obs.events_per_sample"] = table.calls("obs.record") / samples

    # One step = from one rank-0 collate to the next (epoch-boundary work
    # lands in the first step of each epoch: that is the tail).
    marks = table.starts(COLLATE)
    step_ms = np.diff(marks) * 1e3
    step_pct, step_tail = tail(step_ms)
    epoch_starts = table.starts("core.epoch_order")
    run_end = table.starts(ROOT_SPAN)[0] + wall
    epoch_s = np.diff(np.append(epoch_starts, run_end))
    m["train.loop_self_s"] = table.self_time_s(ROOT_SPAN)
    m["train.unattributed_share"] = m["train.loop_self_s"] / wall
    m["train.step_ms_p50"] = _pct(step_ms, 50)
    m["train.step_ms_tail"] = step_tail
    m["train.step_tail_pct"] = step_pct
    m["train.epoch_wall_s_p50"] = _pct(epoch_s, 50)
    m["train.epoch_wall_s_max"] = float(epoch_s.max())

    layer_s = table.layer_self_s()
    for layer in ("data", "core", "storage", "nn", "ann", "dist", "obs"):
        m[f"{layer}.share"] = layer_s.get(layer, 0.0) / wall
    return m
