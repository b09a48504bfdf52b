"""SimClock/DataLoader race regressions.

The deterministic tests replay (via :class:`DeterministicScheduler`) the
exact read-modify-write interleaving that made the *pre-fix*
``SimClock.advance`` and ``DataLoader.skipped_count`` lose updates; the
threaded tests hammer the fixed, locked implementations with real threads
and assert exact totals.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core.semantic_cache import FetchOutcome, FetchSource
from repro.data.loader import DataLoader
from repro.storage.clock import SimClock
from tests.concurrency.scheduler import DeterministicScheduler


# ---------------------------------------------------------------------------
# Deterministic replay of the pre-fix lost-update race


def _racy_advance(clock, stage, seconds):
    """The pre-fix ``advance`` body, with the RMW split at a yield.

    ``self._stage_s[stage] += seconds`` compiles to a read, an add, and a
    store; a thread switch between read and store loses the other
    thread's update. The generator makes that window an explicit
    preemption point so the scheduler can (deterministically) hit it.
    """
    tmp = clock._stage_s[stage]  # read
    yield  # the OS could preempt here
    clock._stage_s[stage] = tmp + seconds  # store


def _find_losing_seed(n_workers=2, n_advances=4):
    for seed in range(300):
        clock = SimClock()

        def worker():
            for _ in range(n_advances):
                yield from _racy_advance(clock, "data_load", 1.0)
                yield

        sched = DeterministicScheduler(seed=seed)
        for _ in range(n_workers):
            sched.spawn(worker)
        sched.run()
        if clock.stage_seconds("data_load") < n_workers * n_advances:
            return seed
    return None


def test_prefix_advance_race_replays_deterministically():
    """A seeded interleaving loses clock time — and does so on every replay."""
    seed = _find_losing_seed()
    assert seed is not None, "no interleaving exposed the RMW race"
    totals = set()
    for _ in range(3):
        clock = SimClock()

        def worker():
            for _ in range(4):
                yield from _racy_advance(clock, "data_load", 1.0)
                yield

        sched = DeterministicScheduler(seed=seed)
        sched.spawn(worker)
        sched.spawn(worker)
        sched.run()
        totals.add(clock.stage_seconds("data_load"))
    assert len(totals) == 1
    assert totals.pop() < 8.0  # updates were lost, reproducibly


def test_prefix_skipped_count_race_replays_deterministically():
    """Same RMW shape on ``DataLoader.skipped_count`` (the second fix)."""

    def racy_count(loader, skipped):
        tmp = loader.skipped_count
        yield
        loader.skipped_count = tmp + skipped

    losing = None
    for seed in range(300):
        loader = DataLoader(np.zeros(8, dtype=np.int64), fetch_fn=None)

        def worker():
            for _ in range(4):
                yield from racy_count(loader, 1)
                yield

        sched = DeterministicScheduler(seed=seed)
        sched.spawn(worker)
        sched.spawn(worker)
        sched.run()
        if loader.skipped_count < 8:
            losing = seed
            break
    assert losing is not None


# ---------------------------------------------------------------------------
# The fixed implementations are exact under real threads


def test_locked_advance_exact_under_threads():
    clock = SimClock()

    def hammer():
        for _ in range(1000):
            clock.advance("data_load", 0.5)

    with ThreadPoolExecutor(max_workers=8) as pool:
        for f in [pool.submit(hammer) for _ in range(8)]:
            f.result()
    assert clock.stage_seconds("data_load") == pytest.approx(8 * 1000 * 0.5)


def test_locked_skip_count_exact_under_threads():
    loader = DataLoader(np.zeros(8, dtype=np.int64), fetch_fn=None)
    skipped = FetchOutcome(0, 0, None, FetchSource.SKIPPED)

    def hammer():
        for _ in range(500):
            assert loader._collate_outcomes([skipped]) is None

    with ThreadPoolExecutor(max_workers=8) as pool:
        for f in [pool.submit(hammer) for _ in range(8)]:
            f.result()
    assert loader.skipped_count == 8 * 500
