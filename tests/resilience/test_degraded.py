"""Degraded serving: widened substitution instead of crashing.

A ``remote_get`` that answers ``None`` (the remote tier is unreachable)
is served degraded, with no setup call. Includes the graceful-degradation
acceptance test: a run whose remote tier fails for a whole outage window
completes training without raising, serves degraded, and the breaker
re-closes once the outage clears.
"""

import numpy as np
import pytest

from repro.cache.base import FetchSource
from repro.core.semantic_cache import SemanticCache
from repro.data.loader import DataLoader
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.faults import FaultPlan, OutageWindow
from repro.train.trainer import Trainer


def _unreachable(index):
    return None


def test_none_from_remote_serves_degraded_with_no_setup():
    empty = SemanticCache(total_capacity=4)
    assert empty.fetch(0, 1.0, _unreachable).source is FetchSource.SKIPPED
    warm = SemanticCache(total_capacity=4, imp_ratio=1.0)
    warm.importance.admit(1, 5.0, np.full(4, 1.0))
    out = warm.fetch(99, 1.0, _unreachable)
    assert out.source is FetchSource.DEGRADED
    assert out.payload is not None


def test_degraded_skip_when_both_layers_empty():
    cache = SemanticCache(total_capacity=4)
    out = cache.fetch(0, 1.0, _unreachable)
    assert out.source is FetchSource.SKIPPED
    assert out.payload is None
    assert cache.skipped == 1
    assert cache.errors_absorbed == 1


def test_degraded_serves_newest_homophily_entry():
    cache = SemanticCache(total_capacity=10, imp_ratio=0.5)
    cache.update_homophily(3, np.full(4, 3.0), [30, 31])
    cache.update_homophily(7, np.full(4, 7.0), [70])
    out = cache.fetch(99, 1.0, _unreachable)  # 99 is nobody's neighbor
    assert out.source is FetchSource.DEGRADED
    assert out.served_id == 7  # freshest resident node stands in
    assert cache.stats.degraded_serves == 1


def test_degraded_falls_back_to_importance_min():
    cache = SemanticCache(total_capacity=4, imp_ratio=1.0)
    cache.importance.admit(1, 5.0, np.full(4, 1.0))
    cache.importance.admit(2, 1.0, np.full(4, 2.0))
    out = cache.fetch(99, 1.0, _unreachable)
    assert out.source is FetchSource.DEGRADED
    assert out.served_id == 2  # least-important resident
    assert cache.stats.degraded_serves == 1


def test_loader_drops_skipped_samples():
    labels = np.arange(10) % 3

    def fetch(i):
        from repro.core.semantic_cache import FetchOutcome

        if i % 2 == 0:
            return FetchOutcome(i, i, None, FetchSource.SKIPPED)
        return FetchOutcome(i, i, np.full(4, float(i)), FetchSource.REMOTE)

    loader = DataLoader(labels, lambda ids: [fetch(int(i)) for i in ids], batch_size=4)
    batch = loader.collate(np.arange(4))
    assert len(batch) == 2  # ids 1, 3 kept
    assert loader.skipped_count == 2
    # A fully-skipped batch collates to None but still occupies its slot.
    all_even = loader.collate(np.array([0, 2, 4]))
    assert all_even is None
    assert loader.n_batches(np.arange(10)) == 3
    np.testing.assert_array_equal(loader.batch_ids(np.arange(10), 2), [8, 9])


def test_graceful_degradation_acceptance(build_run):
    """Remote tier dead for an outage window; training survives end-to-end."""
    # Clean run to size the outage window in simulated seconds.
    clean, _, _ = build_run(epochs=3)
    clean.run()
    total = clean.clock.total_seconds

    trainer, _, policy = build_run(Trainer, epochs=3)
    # Early, short window: the degraded run's clock advances only via
    # compute while the outage is on (no I/O is charged), so a late or
    # long window would outlive the run itself.
    store = trainer.store
    store.fault_plan = FaultPlan(outages=[OutageWindow(0.05 * total, 0.10 * total)])
    breaker = store.breaker = CircuitBreaker(cooldown_s=0.01 * total)

    result = trainer.run()  # must not raise

    assert len(result.epochs) == 3
    # The outage actually hit and the cache served degraded.
    assert store.outage_failures > 0
    cache = policy.cache
    assert cache.stats.degraded_serves + cache.skipped > 0
    assert cache.errors_absorbed > 0
    # The breaker opened during the outage and re-closed after it.
    assert breaker.opens > 0
    assert breaker.state is BreakerState.CLOSED
    pairs = breaker.reopen_close_pairs()
    assert pairs and pairs[-1][1] is not None


# ----------------------------------------------------------------------
# Regression: degraded serves must not count as substitute hits.
# They used to increment ``stats.substitute_hits``, inflating
# ``hit_ratio``/``substitute_ratio`` for every epoch overlapping an
# outage and making fault-campaign tables incomparable to clean runs.
# ----------------------------------------------------------------------
def test_degraded_serves_not_counted_as_substitute_hits():
    cache = SemanticCache(total_capacity=10, imp_ratio=0.5)
    cache.update_homophily(3, np.full(4, 3.0), [30])
    before = cache.stats.requests
    for i in range(5):
        out = cache.fetch(90 + i, 1.0, _unreachable)
        assert out.source is FetchSource.DEGRADED
    assert cache.stats.substitute_hits == 0
    assert cache.stats.degraded_serves == 5
    # Degraded serves stay out of the hit-ratio denominator entirely.
    assert cache.stats.requests == before
    assert cache.stats.hit_ratio == 0.0


def test_degraded_hit_ratio_unaffected_by_outage():
    """Hit ratio over mixed traffic counts only real cache activity."""
    cache = SemanticCache(total_capacity=10, imp_ratio=1.0)
    payloads = {i: np.full(4, float(i)) for i in range(20)}
    # Two clean misses (admitted), then two importance hits: ratio 2/4.
    for i in (0, 1):
        cache.fetch(i, 5.0, payloads.__getitem__)
    for i in (0, 1):
        out = cache.fetch(i, 5.0, _unreachable)  # served from cache, not remote
        assert out.source is FetchSource.IMPORTANCE
    assert cache.stats.hit_ratio == pytest.approx(0.5)
    # An outage burst served degraded must leave the ratio untouched.
    for i in range(10, 15):
        assert cache.fetch(i, 1.0, _unreachable).source is FetchSource.DEGRADED
    assert cache.stats.hit_ratio == pytest.approx(0.5)
    assert cache.stats.degraded_serves == 5


def test_degraded_serves_round_trip_state_dict():
    cache = SemanticCache(total_capacity=10, imp_ratio=0.5)
    cache.update_homophily(3, np.full(4, 3.0), [30])
    cache.fetch(99, 1.0, _unreachable)
    state = cache.stats.state_dict()
    assert state["degraded_serves"] == 1
    fresh = SemanticCache(total_capacity=10, imp_ratio=0.5)
    fresh.stats.load_state_dict(state)
    assert fresh.stats.degraded_serves == 1
