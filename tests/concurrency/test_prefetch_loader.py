"""PrefetchingDataLoader: bit-identical results, overlapped accounting."""

import numpy as np
import pytest

from repro.core.semantic_cache import FetchOutcome, FetchSource, SemanticCache
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


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_bit_identical_to_serial_loader(workers):
    """The loader's core promise: overlap changes only the clock, never
    the serial loader's batches, substitutions or cache state."""
    labels = np.arange(N, dtype=np.int64) % 4

    serial_clock = SimClock()
    serial_fetch, serial_cache = _make_fetch(serial_clock)
    serial = DataLoader(labels, serial_fetch, batch_size=16)
    serial_batches = _run(serial)

    clock = SimClock()
    fetch, cache = _make_fetch(clock)
    loader = PrefetchingDataLoader(
        labels, fetch, batch_size=16, workers=workers, clock=clock,
    )
    batches = _run(loader)

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
    loader = PrefetchingDataLoader(
        labels, _make_fetch(clock)[0], batch_size=16, workers=4, clock=clock,
    )
    _run(loader)
    overlapped_s = clock.stage_seconds("data_load")

    assert overlapped_s < serial_s
    assert loader.overlap_saved_s == pytest.approx(serial_s - overlapped_s)
    assert loader.windows_committed > 0


def test_workers_one_degenerates_to_serial_accounting():
    labels = np.zeros(N, dtype=np.int64)
    clock = SimClock()
    loader = PrefetchingDataLoader(
        labels, _make_fetch(clock)[0], batch_size=16, workers=1, clock=clock,
    )
    _run(loader)
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
    loader = PrefetchingDataLoader(
        labels, _make_fetch(clock)[0], batch_size=16, workers=4,
        clock=clock, observer=obs,
    )
    _run(loader)
    events = [e for e in obs.recorder.events if e["kind"] == "prefetch_window"]
    assert len(events) == loader.windows_committed
    saved = sum(e["saved_s"] for e in events)
    assert saved == pytest.approx(loader.overlap_saved_s)
    for e in events:
        assert e["charged_s"] <= e["sum_s"]
        assert 1 <= e["size"] <= 4
    assert obs.metrics.counter("prefetch.windows").value == len(events)


def test_fetch_error_propagates_and_aborts_later_slots():
    """The failing slot's error surfaces and later slots are never fetched
    (the serial loader's abort shape); the batch's captured charges are
    dropped."""
    labels = np.zeros(N, dtype=np.int64)
    clock = SimClock()
    calls = []

    def fetch(i):
        calls.append(i)
        clock.advance("data_load", 0.01)
        if i == 5:
            raise KeyError("boom")
        return FetchOutcome(i, i, np.zeros(2), FetchSource.REMOTE)

    loader = PrefetchingDataLoader(labels, fetch, batch_size=16, workers=4,
                                   clock=clock)
    with pytest.raises(KeyError):
        loader.collate(np.array([1, 2, 5, 7, 8, 9], dtype=np.int64))
    assert calls == [1, 2, 5]
    assert clock.stage_seconds("data_load") == 0.0
    assert loader.windows_committed == 0


def test_rejects_nonpositive_workers():
    with pytest.raises(ValueError):
        PrefetchingDataLoader(np.zeros(4, dtype=np.int64), None, workers=0,
                              clock=SimClock())


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
            fetch_many_fn=fetch_many,
        )

    wide, serial = make(3), make(1)
    np.testing.assert_array_equal(wide.collate(ids).X, serial.collate(ids).X)
    assert batches_seen == [1]
    assert wide.windows_committed == 3 and serial.windows_committed == 0
