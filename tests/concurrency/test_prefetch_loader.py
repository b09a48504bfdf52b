"""PrefetchingDataLoader: bit-identical results, overlapped accounting."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.concurrency import Sequencer, SequencerAborted
from repro.core.semantic_cache import SemanticCache
from repro.data.loader import DataLoader
from repro.data.prefetch import PrefetchingDataLoader
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.trace import InMemoryRecorder
from repro.storage.clock import SimClock

N = 40


def _make_fetch(clock):
    """A cache-backed fetch whose remote cost varies per id."""
    cache = SemanticCache(total_capacity=8, imp_ratio=0.5)
    rng = np.random.default_rng(5)
    scores = rng.random(N)

    def remote_get(i):
        clock.advance("data_load", 0.010 + 0.001 * (i % 7))
        return np.full(4, float(i))

    def fetch(i):
        return cache.fetch(i, float(scores[i]), remote_get)

    return fetch, cache


def _epoch_order():
    return np.random.default_rng(9).integers(0, N, size=96).astype(np.int64)


def _run(loader):
    order = _epoch_order()
    batches = []
    for start in range(0, len(order), loader.batch_size):
        batches.append(loader.collate(order[start:start + loader.batch_size]))
    return batches


@pytest.mark.parametrize("executor", ["threads", "deterministic"])
@pytest.mark.parametrize("workers", [2, 3, 5])
def test_bit_identical_to_serial_loader(workers, executor):
    """The loader's core promise, proven under BOTH slot executors: real
    threads and the seeded deterministic scheduler must each land on the
    serial loader's exact bits."""
    labels = np.arange(N, dtype=np.int64) % 4

    serial_clock = SimClock()
    serial_fetch, serial_cache = _make_fetch(serial_clock)
    serial = DataLoader(labels, serial_fetch, batch_size=16)
    serial_batches = _run(serial)

    clock = SimClock()
    fetch, cache = _make_fetch(clock)
    loader = PrefetchingDataLoader(
        labels, fetch, batch_size=16, workers=workers, clock=clock,
        executor=executor, seed=workers,
    )
    try:
        batches = _run(loader)
    finally:
        loader.close()

    assert len(batches) == len(serial_batches)
    for b, sb in zip(batches, serial_batches):
        np.testing.assert_array_equal(b.requested, sb.requested)
        np.testing.assert_array_equal(b.served, sb.served)
        np.testing.assert_array_equal(b.X, sb.X)
        np.testing.assert_array_equal(b.y, sb.y)
        assert b.sources == sb.sources
    cs, ss = cache.stats, serial_cache.stats
    assert (cs.hits, cs.misses, cs.substitute_hits) == (
        ss.hits, ss.misses, ss.substitute_hits
    )
    assert cache.importance.keys() == serial_cache.importance.keys()


def test_overlap_charges_strictly_less_time():
    labels = np.zeros(N, dtype=np.int64)
    serial_clock = SimClock()
    serial = DataLoader(labels, _make_fetch(serial_clock)[0], batch_size=16)
    _run(serial)
    serial_s = serial_clock.stage_seconds("data_load")

    clock = SimClock()
    # Pinned to the deterministic executor: the assertion is exact charge
    # math, so keep the OS thread scheduler out of the loop entirely.
    loader = PrefetchingDataLoader(
        labels, _make_fetch(clock)[0], batch_size=16, workers=4, clock=clock,
        executor="deterministic",
    )
    try:
        _run(loader)
    finally:
        loader.close()
    overlapped_s = clock.stage_seconds("data_load")

    assert overlapped_s < serial_s
    assert loader.overlap_saved_s == pytest.approx(serial_s - overlapped_s)
    assert loader.windows_committed > 0


def test_workers_one_degenerates_to_serial_accounting():
    labels = np.zeros(N, dtype=np.int64)
    clock = SimClock()
    loader = PrefetchingDataLoader(
        labels, _make_fetch(clock)[0], batch_size=16, workers=1, clock=clock,
        executor="deterministic",
    )
    try:
        _run(loader)
    finally:
        loader.close()
    serial_clock = SimClock()
    serial = DataLoader(labels, _make_fetch(serial_clock)[0], batch_size=16)
    _run(serial)
    assert clock.stage_seconds("data_load") == pytest.approx(
        serial_clock.stage_seconds("data_load")
    )
    assert loader.windows_committed == 0


def test_observer_sees_windows():
    labels = np.zeros(N, dtype=np.int64)
    clock = SimClock()
    obs = Observer(recorder=InMemoryRecorder(), metrics=MetricsRegistry())
    # Pinned: the exact event stream is the assertion, so run it seeded.
    loader = PrefetchingDataLoader(
        labels, _make_fetch(clock)[0], batch_size=16, workers=4,
        clock=clock, observer=obs, executor="deterministic",
    )
    try:
        _run(loader)
    finally:
        loader.close()
    events = [e for e in obs.recorder.events if e["kind"] == "prefetch_window"]
    assert len(events) == loader.windows_committed
    saved = sum(e["saved_s"] for e in events)
    assert saved == pytest.approx(loader.overlap_saved_s)
    for e in events:
        assert e["charged_s"] <= e["sum_s"]
        assert 1 <= e["size"] <= 4
    assert obs.metrics.counter("prefetch.windows").value == len(events)


@pytest.mark.parametrize("executor", ["threads", "deterministic"])
def test_fetch_error_propagates_and_aborts_later_slots(executor):
    """Abort shape is part of the SlotExecutor contract — check it on
    both implementations."""
    labels = np.zeros(N, dtype=np.int64)
    calls = []

    def fetch(i):
        calls.append(i)
        if i == 5:
            raise KeyError("boom")
        from repro.core.semantic_cache import FetchOutcome, FetchSource
        return FetchOutcome(i, i, np.zeros(2), FetchSource.REMOTE)

    loader = PrefetchingDataLoader(labels, fetch, batch_size=16, workers=4,
                                   executor=executor)
    ids = np.array([1, 2, 5, 7, 8, 9], dtype=np.int64)
    try:
        with pytest.raises(KeyError):
            loader.collate(ids)
    finally:
        loader.close()
    # Slots after the failed one never ran their fetch (serial semantics:
    # the loop would have stopped at id 5).
    assert set(calls) <= {1, 2, 5}


def test_sequencer_orders_and_aborts():
    seq = Sequencer()
    committed = []

    def slot(i):
        if i == 3:
            with pytest.raises(SequencerAborted):
                with seq.turn(i):
                    pass  # never runs
            return
        try:
            with seq.turn(i):
                committed.append(i)
                if i == 2:
                    raise ValueError("slot 2 fails")
        except ValueError:
            pass

    with ThreadPoolExecutor(max_workers=4) as pool:
        for f in [pool.submit(slot, i) for i in range(4)]:
            f.result()
    assert committed == [0, 1, 2]
    assert seq.aborted


def test_close_is_idempotent_and_pool_restarts():
    labels = np.zeros(N, dtype=np.int64)
    clock = SimClock()
    loader = PrefetchingDataLoader(
        labels, _make_fetch(clock)[0], batch_size=8, workers=2, clock=clock
    )
    assert loader.collate(np.arange(8, dtype=np.int64)) is not None
    loader.drain()
    loader.close()
    loader.close()
    # A post-close collate lazily rebuilds the pool.
    assert loader.collate(np.arange(8, dtype=np.int64)) is not None
    loader.close()


def test_deterministic_executor_is_seed_reproducible():
    """Same seed -> same interleaving trace AND same batches; different
    seed -> possibly different interleaving, *provably* same batches
    (the slot-order commit protocol, not luck, carries the bits)."""
    labels = np.zeros(N, dtype=np.int64)

    def run_once(seed):
        clock = SimClock()
        loader = PrefetchingDataLoader(
            labels, _make_fetch(clock)[0], batch_size=16, workers=4,
            clock=clock, executor="deterministic", seed=seed,
        )
        batches = _run(loader)
        return batches, list(loader._executor.last_trace)

    b1, t1 = run_once(seed=7)
    b2, t2 = run_once(seed=7)
    b3, t3 = run_once(seed=8)
    assert t1 == t2
    for a, b in zip(b1, b2):
        np.testing.assert_array_equal(a.X, b.X)
        assert a.sources == b.sources
    for a, b in zip(b1, b3):
        np.testing.assert_array_equal(a.X, b.X)
        assert a.sources == b.sources


def test_executor_kind_is_surfaced():
    labels = np.zeros(4, dtype=np.int64)
    ld = PrefetchingDataLoader(labels, None, workers=2)
    assert ld.executor_kind == "threads"
    ld = PrefetchingDataLoader(labels, None, workers=2,
                               executor="deterministic")
    assert ld.executor_kind == "deterministic"
    with pytest.raises(ValueError):
        PrefetchingDataLoader(labels, None, workers=2, executor="bogus")


def test_rejects_nonpositive_workers():
    with pytest.raises(ValueError):
        PrefetchingDataLoader(np.zeros(4, dtype=np.int64), None, workers=0)


def test_only_the_serial_width_uses_the_batch_entry():
    """A slot is the unit of overlap: ``workers > 1`` keeps fetching per
    slot through ``fetch_fn`` (the bit-exactness test above is about that
    path); ``workers == 1`` is the serial loader and hands the whole
    batch to ``fetch_many_fn``."""
    labels = np.zeros(N, dtype=np.int64)
    ids = np.arange(8, dtype=np.int64)
    batches_seen = []

    def make(workers):
        clock = SimClock()
        fetch, _ = _make_fetch(clock)

        def fetch_many(batch_ids):
            batches_seen.append(workers)
            return [fetch(int(i)) for i in batch_ids]

        return PrefetchingDataLoader(
            labels, fetch, batch_size=8, workers=workers, clock=clock,
            executor="deterministic", fetch_many_fn=fetch_many,
        )

    wide, serial = make(3), make(1)
    np.testing.assert_array_equal(wide.collate(ids).X, serial.collate(ids).X)
    assert batches_seen == [1]
    assert wide.windows_committed == 3 and serial.windows_committed == 0
