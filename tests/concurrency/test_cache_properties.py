"""Hypothesis property tests: the lock-striped cache under concurrency.

Random operation programs (fetches, homophily refreshes, elastic
rebalances) run through a worker pool whose effects commit in program
order via :class:`~repro.concurrency.sequencer.Sequencer` — exactly the
prefetching loader's execution shape. The committed state must

* satisfy the serial conservation invariants
  (``hits + misses + substitute_hits == requests``,
  ``insertions - evictions == occupancy``, heap min is the true minimum,
  capacities within budget), and
* equal a fresh cache's *serial* replay of the same program, bit for bit.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.concurrency import Sequencer  # noqa: E402
from repro.core.semantic_cache import SemanticCache  # noqa: E402

N_IDS = 24


def _payload(i):
    return np.full(3, float(i))


ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.just("fetch"),
            st.integers(min_value=0, max_value=N_IDS - 1),
            st.floats(min_value=0.0, max_value=1.0,
                      allow_nan=False, allow_infinity=False),
        ),
        st.tuples(
            st.just("homophily"),
            st.integers(min_value=0, max_value=N_IDS - 1),
            st.lists(st.integers(min_value=0, max_value=N_IDS - 1),
                     min_size=0, max_size=4),
        ),
        st.tuples(
            st.just("ratio"),
            st.floats(min_value=0.0, max_value=1.0,
                      allow_nan=False, allow_infinity=False),
        ),
    ),
    min_size=1,
    max_size=60,
)


def _apply(cache, op):
    kind = op[0]
    if kind == "fetch":
        _, idx, score = op
        out = cache.fetch(idx, score, _payload)
        return (out.requested_id, out.served_id, str(out.source))
    if kind == "homophily":
        _, key, neighbors = op
        return cache.update_homophily(key, _payload(key), list(neighbors))
    _, ratio = op
    cache.set_imp_ratio(ratio)
    return None


def _run_concurrent(ops, workers=4):
    cache = SemanticCache(total_capacity=8, imp_ratio=0.5)
    seq = Sequencer()
    results = [None] * len(ops)

    def slot(i):
        with seq.turn(i):
            results[i] = _apply(cache, ops[i])

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for f in [pool.submit(slot, i) for i in range(len(ops))]:
            f.result()
    return cache, results


def _run_serial(ops):
    cache = SemanticCache(total_capacity=8, imp_ratio=0.5)
    return cache, [_apply(cache, op) for op in ops]


def _check_invariants(cache, n_fetches):
    s = cache.stats
    assert s.hits + s.misses + s.substitute_hits == s.requests
    assert s.requests == n_fetches
    imp = cache.importance
    assert imp.stats.insertions - imp.stats.evictions == len(imp)
    assert len(imp) <= imp.capacity
    assert len(cache.homophily) <= cache.homophily.capacity
    assert imp.capacity + cache.homophily.capacity == cache.total_capacity
    snapshot = imp.scores_snapshot()
    if snapshot:
        assert imp.min_score() == pytest.approx(
            min(score for _, score in snapshot)
        )
    else:
        assert imp.min_score() is None


@given(ops=ops_strategy, workers=st.integers(min_value=2, max_value=6))
@settings(deadline=None)
def test_concurrent_commits_match_serial_replay(ops, workers):
    concurrent_cache, concurrent_results = _run_concurrent(ops, workers)
    serial_cache, serial_results = _run_serial(ops)

    n_fetches = sum(1 for op in ops if op[0] == "fetch")
    _check_invariants(concurrent_cache, n_fetches)

    # Bit-identical to the serial replay: every outcome, both layers'
    # contents (including order), and every counter.
    assert concurrent_results == serial_results
    cs, ss = concurrent_cache.stats, serial_cache.stats
    assert (cs.hits, cs.misses, cs.substitute_hits,
            cs.insertions, cs.evictions) == (
        ss.hits, ss.misses, ss.substitute_hits, ss.insertions, ss.evictions
    )
    assert concurrent_cache.importance.keys() == serial_cache.importance.keys()
    assert concurrent_cache.importance.scores_snapshot() == (
        serial_cache.importance.scores_snapshot()
    )
    assert concurrent_cache.homophily.keys() == serial_cache.homophily.keys()
