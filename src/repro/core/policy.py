"""The importance-sampling policy skeleton, and SpiderCache: Algorithm 1
end to end.

:class:`ISPolicy` is what every IS policy shares (SpiderCache here, SHADE,
gradient-norm IS and iCache in :mod:`repro.baselines.loss_is`): a global
score table, the multinomial epoch sampler over it, the Fig. 9 fetch
through a :class:`SemanticCache`, Algorithm 1's per-batch score update
into the table and the cache, the per-epoch score dispersion snapshot,
and their checkpoint halves. Subclasses supply how a batch becomes
scores and the sampling weights, and may size or split the cache.

:class:`SpiderCachePolicy` ties together the graph-based IS algorithm
(§4.1), the semantic-aware two-layer cache (§4.2), and the elastic cache
manager (§4.3) behind the trainer's policy protocol:

* ``epoch_order`` — multinomial draw over global importance scores
  (Alg. 1's ``torch.multinomial`` sampling);
* ``fetch`` — importance cache → homophily neighbor lists → remote
  (Alg. 1 lines 4-12);
* ``after_batch`` — update the ANN index with fresh embeddings, recompute
  scores, refresh the importance heap, insert the batch's top-degree node
  into the homophily cache (lines 15-22);
* ``after_epoch`` — snapshot score dispersion and let the elastic manager
  re-split the cache (line 24).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.base import Cache
from repro.core.elastic import ElasticCacheManager
from repro.core.graph_is import DEFAULT_LAM, GraphImportanceScorer, NodeScore
from repro.core.sampler import MultinomialSampler
from repro.core.scores import GlobalScoreTable, last_occurrences
from repro.core.importance_cache import ImportanceCache
from repro.core.semantic_cache import SemanticCache
from repro.train.policy_base import PolicyContext, TrainingPolicy
from repro.utils.rng import RngLike

__all__ = ["ISPolicy", "SpiderCachePolicy"]

#: Sampling temper: p = UNIFORM_MIX * uniform + (1 - UNIFORM_MIX) * score-
#: weighted. Keeps per-epoch coverage high so importance sampling's focus
#: on hard samples doesn't starve the easy majority (standard IS
#: variance-control practice; the paper's torch.multinomial call leaves the
#: weighting to the scores, which Eq. 4's log already tempers on the
#: 50k-sample datasets it was tuned for).
UNIFORM_MIX = 0.1
#: Relative score floor: no sample is drawn less than SCORE_FLOOR x as
#: often as the current maximum, which bounds the oversampling ratio (the
#: variance-control role SHADE's rank floor plays).
SCORE_FLOOR = 0.1


class ISPolicy(TrainingPolicy):
    """Importance sampling over a global score table and the Fig. 9
    cache.

    Owns the :class:`GlobalScoreTable`, whose scores every fetch hands
    the cache's layers, and the :class:`MultinomialSampler` drawing each
    epoch from :meth:`_sampling_weights`. :meth:`after_batch` keeps each
    served id's last occurrence, scores the batch with
    :meth:`_score_batch`, and writes the scores to the table and to the
    cache in one call each.
    """

    def __init__(self, cache_fraction: float = 0.2, rng: RngLike = None) -> None:
        super().__init__(rng=rng)
        if not 0.0 <= cache_fraction <= 1.0:
            raise ValueError("cache_fraction must be in [0, 1]")
        self.cache_fraction = float(cache_fraction)
        # Built in setup():
        self.score_table: Optional[GlobalScoreTable] = None
        self.sampler: Optional[MultinomialSampler] = None

    def _cache_layers(self, capacity: int) -> List[Cache]:
        """By default the importance layer alone."""
        return [ImportanceCache(capacity)]

    def _scores(self, ids: List[int]) -> List[float]:
        assert self.score_table is not None
        return self.score_table.scores[ids].tolist()

    def _sampling_weights(self) -> np.ndarray:
        """Per-sample weights of the next epoch's draw."""
        assert self.score_table is not None
        return self.score_table.sampling_weights()

    def _score_batch(
        self, served: np.ndarray, keep: np.ndarray, losses: np.ndarray,
        embeddings: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, scores)`` of one trained batch; ``keep`` holds the
        positions of each served id's last occurrence."""
        raise NotImplementedError

    def setup(self, ctx: PolicyContext) -> None:
        super().setup(ctx)
        n = ctx.num_samples
        self.score_table = GlobalScoreTable(n)
        self.sampler = MultinomialSampler(
            n, weight_fn=self._sampling_weights, rng=self._rng
        )

    def epoch_order(self, epoch: int) -> np.ndarray:
        assert self.sampler is not None
        return self.sampler.epoch_order(epoch)

    def after_batch(
        self,
        requested: np.ndarray,
        served: np.ndarray,
        losses: np.ndarray,
        embeddings: np.ndarray,
        epoch: int,
    ) -> None:
        assert self.score_table is not None and self.cache is not None
        # With-replacement sampling can repeat an id within a batch; its
        # last occurrence is the one scored.
        served = np.asarray(served, dtype=np.int64)
        ids, scores = self._score_batch(
            served, last_occurrences(served), losses, embeddings
        )
        self.score_table.update(ids, scores)
        self.cache.update_scores(ids, scores)

    def after_epoch(self, epoch: int, val_accuracy: float) -> None:
        assert self.score_table is not None
        self.score_table.snapshot_std()

    def state_dict(self) -> dict:
        """The sampling RNG, the cache and the score table."""
        assert self.score_table is not None
        state = super().state_dict()
        state["score_table"] = self.score_table.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (call after ``setup``)."""
        assert self.score_table is not None
        super().load_state_dict(state)
        self.score_table.load_state_dict(state["score_table"])


class SpiderCachePolicy(ISPolicy):
    """The full SpiderCache strategy.

    Parameters
    ----------
    cache_fraction:
        Total cache budget as a fraction of the dataset (paper uses 10-75%).
        ``0`` disables caching entirely (the Fig. 13 IS-only configuration).
    lam, alpha:
        Eq. 2-3: an edge joins samples closer than ``-ln(alpha)/lam`` units
        of the calibrated same-class distance scale (0.85 by default).
    neighbormax:
        Eq. 4's Part-2 normalizer and the cap on one range query's answer.
    r_start, r_end:
        Elastic imp-ratio endpoints; paper recommends 0.9 -> 0.8. Setting
        ``elastic=False`` pins the ratio at ``r_start`` (the static
        "Imp-Ratio 90%" configuration of §6.5).
    backend:
        Neighbor-search backend, ``"exact"`` or ``"hnsw"``.
    """

    name = "spidercache"

    def __init__(
        self,
        cache_fraction: float = 0.2,
        lam: float = DEFAULT_LAM,
        alpha: float = 0.1,
        neighbormax: int = 500,
        r_start: float = 0.9,
        r_end: float = 0.8,
        elastic: bool = True,
        backend: str = "exact",
        hom_neighbor_limit: int = 16,
        hom_same_class_only: bool = True,
        hom_radius_scale: float = 0.75,
        prefetch_fraction: float = 0.0,
        rng: RngLike = None,
    ) -> None:
        super().__init__(cache_fraction, rng=rng)
        if hom_neighbor_limit < 1:
            raise ValueError("hom_neighbor_limit must be >= 1")
        if not 0.0 < hom_radius_scale <= 1.0:
            raise ValueError("hom_radius_scale must be in (0, 1]")
        if lam <= 0:
            raise ValueError("lam must be positive")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        # Substitution safety: a Homophily entry only covers its *closest*
        # ``hom_neighbor_limit`` neighbors, only same-class ones (by
        # default), and only those within ``hom_radius_scale`` of the edge
        # radius — "replacing them with similar counterparts" (§4.2) means
        # near-duplicates, not everything the IS graph connects. Loose
        # settings trade accuracy for hit ratio (ablation A3).
        self.hom_neighbor_limit = int(hom_neighbor_limit)
        self.hom_same_class_only = bool(hom_same_class_only)
        self.hom_radius_scale = float(hom_radius_scale)
        # Prefetching (paper §4.2: "Eviction and prefetching are driven by
        # sample importance scores"): at each epoch start, up to this
        # fraction of the Importance Cache's capacity is refilled with the
        # top-scored uncached samples. The fetch latency is charged like any
        # other remote read (prefetches are real I/O; prefetch_count counts each).
        if not 0.0 <= prefetch_fraction <= 1.0:
            raise ValueError("prefetch_fraction must be in [0, 1]")
        self.prefetch_fraction = float(prefetch_fraction)
        self.prefetch_count = 0
        self.lam = float(lam)
        self.alpha = float(alpha)
        self.neighbormax = neighbormax
        self.r_start = r_start
        self.r_end = r_end
        self.elastic = elastic
        self.backend = backend
        # Built in setup():
        self.scorer: Optional[GraphImportanceScorer] = None
        self.manager: Optional[ElasticCacheManager] = None
        # The last scored batch's top-degree node (Alg. 1 lines 18-20).
        self._top: Optional[NodeScore] = None

    # ------------------------------------------------------------------
    def _build_cache(self, capacity: int) -> SemanticCache:
        """The Fig. 9 pair, split at ``r_start``."""
        return self.cache_factory(capacity, self.r_start)

    def setup(self, ctx: PolicyContext) -> None:
        super().setup(ctx)
        self.scorer = GraphImportanceScorer(
            dim=ctx.embedding_dim,
            labels=ctx.dataset.y,
            lam=self.lam,
            alpha=self.alpha,
            neighbormax=self.neighbormax,
            backend=self.backend,
            # Only the HNSW index draws (its level assignment); spawning a
            # child leaves the sampler's stream untouched, and the exact
            # backend must not even advance the spawn counter.
            rng=self._rng.spawn(1)[0] if self.backend == "hnsw" else None,
        )
        self.manager = ElasticCacheManager(
            total_epochs=ctx.total_epochs,
            r_start=self.r_start,
            r_end=self.r_end,
        )

    def attach_observer(self, observer) -> None:
        """Cascade the run observer into the cache layers and the elastic
        manager (call after ``setup``); register :meth:`counters`."""
        super().attach_observer(observer)
        observer.register(self)
        if self.manager is not None:
            self.manager.attach_observer(observer)

    def _mixed_weights(self) -> np.ndarray:
        assert self.score_table is not None
        scores = np.asarray(self.score_table.scores, dtype=np.float64)
        floored = np.maximum(scores, SCORE_FLOOR * scores.max())
        total = floored.sum()
        if not np.isfinite(total) or total <= 0:
            # Every score is zero (a relative floor of a zero maximum is
            # zero): dividing would yield NaN weights and poison the
            # multinomial draw. Fall back to uniform.
            return np.full(scores.shape[0], 1.0 / scores.shape[0])
        w = floored / total
        return UNIFORM_MIX / w.shape[0] + (1.0 - UNIFORM_MIX) * w

    _sampling_weights = _mixed_weights

    # ------------------------------------------------------------------
    def before_epoch(self, epoch: int) -> None:
        """Importance-driven prefetch into the Importance Cache."""
        if self.prefetch_fraction == 0.0 or epoch == 0:
            return  # no scores yet at epoch 0
        assert self.cache is not None and self.score_table is not None
        ctx = self._require_ctx()
        imp = self.cache.importance
        budget = int(self.prefetch_fraction * imp.capacity)
        if budget <= 0:
            return
        order = np.argsort(self.score_table.scores)[::-1]
        fetched = 0
        for idx in order:
            if fetched >= budget:
                break
            idx = int(idx)
            if idx in imp:
                continue
            score = self.score_table.get(idx)
            if imp.refuses(score):
                break  # remaining candidates score even lower
            payload = ctx.store.get(idx)  # real I/O, charges latency
            if payload is None:
                # Remote tier down mid-prefetch: stop topping up the cache
                # rather than aborting the epoch. Training proceeds with
                # whatever is already resident.
                self.cache.errors_absorbed += 1
                break
            self.prefetch_count += 1
            admitted = imp.admit(idx, score, payload)
            if self._obs.active:
                self._obs.on_prefetch(idx, admitted)
            if admitted:
                fetched += 1
            else:
                break

    def _score_batch(
        self, served: np.ndarray, keep: np.ndarray, losses: np.ndarray,
        embeddings: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Graph-based scores (Alg. 1 lines 15-21). Embeddings describe the
        samples actually trained on (homophily substitutions replace the
        payload, so index under the served id)."""
        assert self.scorer is not None
        scores = self.scorer.score_batch(served[keep], embeddings[keep])
        # Range rows are read before the index changes again.
        self._top = self.scorer.top_degree_node(scores)
        return scores.indices, scores.scores

    def after_batch(
        self,
        requested: np.ndarray,
        served: np.ndarray,
        losses: np.ndarray,
        embeddings: np.ndarray,
        epoch: int,
    ) -> None:
        """The shared score update, then the batch's top-degree node
        enters the Homophily Cache (Alg. 1 line 22)."""
        super().after_batch(requested, served, losses, embeddings, epoch)
        assert self.scorer is not None and self.cache is not None
        ctx = self._require_ctx()
        top, self._top = self._top, None
        if top is not None and top.degree > 0 and top.index not in self.cache.homophily:
            neigh = top.neighbor_ids
            # Near-duplicates only: inside a fraction of the edge radius...
            keep = top.neighbor_dists <= self.hom_radius_scale * self.scorer.radius
            neigh = neigh[keep]
            # ...and same-class (substitutes must not change the label).
            if self.hom_same_class_only:
                neigh = neigh[ctx.dataset.y[neigh] == ctx.dataset.y[top.index]]
            neigh = neigh[: self.hom_neighbor_limit]  # range results are sorted
            if neigh.size:
                # ``embeddings`` rows are activations; the cache must hold
                # the *input* payload. The sample was resident in memory this
                # batch, so reading it charges no simulated latency (peek).
                payload = ctx.store.peek(top.index)
                self.cache.update_homophily(top.index, payload, neigh.tolist())

    def after_epoch(self, epoch: int, val_accuracy: float) -> None:
        super().after_epoch(epoch, val_accuracy)
        assert self.score_table is not None and self.manager is not None
        if self.elastic:
            self.manager.coordinate(
                epoch, self.score_table.std_history[-1], val_accuracy,
                [self.cache],
            )

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full checkpointable policy state (Alg. 1's cross-epoch memory).

        Covers everything biased sampling and cache admission depend on:
        the global score table, both cache layers, the elastic manager's
        latched monitors, the scorer's ANN index + calibration EMA, and the
        sampling RNG stream. Restoring this after a preemption keeps the
        importance-sampling distribution exactly on the uninterrupted
        trajectory.
        """
        assert self.manager is not None and self.scorer is not None
        state = super().state_dict()
        state.update(
            manager=self.manager.state_dict(),
            scorer=self.scorer.state_dict(),
            prefetch_count=self.prefetch_count,
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (call after ``setup``)."""
        assert self.manager is not None and self.scorer is not None
        super().load_state_dict(state)
        self.manager.load_state_dict(state["manager"])
        self.scorer.load_state_dict(state["scorer"])
        self.prefetch_count = int(state["prefetch_count"])

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Prefetch reads under the metrics name."""
        return {"cache.prefetches": self.prefetch_count}

    @property
    def is_ms_per_batch(self) -> Optional[float]:
        """Graph-based IS cost scales with the model's embedding dimension
        (Table 1); ``None`` defers to the model spec's value."""
        return None

    @property
    def imp_ratio(self) -> Optional[float]:
        if self.cache is None:
            return None
        return self.cache.imp_ratio
