"""DeterministicScheduler harness tests: replayable interleavings."""

import pytest

from tests.concurrency.scheduler import (
    CooperativeLock,
    DeterministicScheduler,
    SchedulerDeadlock,
)


def _counter_workers(sched, counter, lock=None, rounds=5):
    """Two workers incrementing a shared counter via racy or locked RMW."""

    def worker():
        for _ in range(rounds):
            if lock is not None:
                yield lock
            tmp = counter["n"]  # read
            yield  # preemption point between read and write
            counter["n"] = tmp + 1  # write
            if lock is not None:
                lock.release()
            yield

    sched.spawn(worker, name="a")
    sched.spawn(worker, name="b")


def test_same_seed_same_trace():
    traces = []
    for _ in range(2):
        sched = DeterministicScheduler(seed=42)
        counter = {"n": 0}
        _counter_workers(sched, counter)
        traces.append((sched.run(), counter["n"]))
    assert traces[0] == traces[1]


def test_seeds_explore_different_interleavings():
    outcomes = set()
    for seed in range(20):
        sched = DeterministicScheduler(seed=seed)
        counter = {"n": 0}
        _counter_workers(sched, counter)
        sched.run()
        outcomes.add(tuple(name for _, name in sched.trace))
    assert len(outcomes) > 1


def test_racy_rmw_loses_updates_under_some_seed():
    """The harness can *find* a lost-update interleaving, then replay it."""
    losing_seed = None
    for seed in range(200):
        sched = DeterministicScheduler(seed=seed)
        counter = {"n": 0}
        _counter_workers(sched, counter)
        sched.run()
        if counter["n"] < 10:  # 2 workers x 5 increments
            losing_seed = seed
            break
    assert losing_seed is not None, "no seed exposed the race"
    # Replay: the same seed reproduces the same lost count, every time.
    results = []
    for _ in range(3):
        sched = DeterministicScheduler(seed=losing_seed)
        counter = {"n": 0}
        _counter_workers(sched, counter)
        sched.run()
        results.append(counter["n"])
    assert len(set(results)) == 1 and results[0] < 10


def test_cooperative_lock_makes_rmw_exact_under_every_seed():
    for seed in range(50):
        sched = DeterministicScheduler(seed=seed)
        lock = sched.lock("counter")
        counter = {"n": 0}
        _counter_workers(sched, counter, lock=lock)
        sched.run()
        assert counter["n"] == 10, f"seed {seed} lost updates despite lock"


def test_lock_provides_mutual_exclusion():
    sched = DeterministicScheduler(seed=7)
    lock = sched.lock()
    in_critical = {"n": 0, "max": 0}

    def worker():
        for _ in range(4):
            yield lock
            in_critical["n"] += 1
            in_critical["max"] = max(in_critical["max"], in_critical["n"])
            yield  # stay inside the critical section across a preemption
            in_critical["n"] -= 1
            lock.release()
            yield

    sched.spawn(worker)
    sched.spawn(worker)
    sched.spawn(worker)
    sched.run()
    assert in_critical["max"] == 1


def test_deadlock_detected():
    sched = DeterministicScheduler()
    lock = sched.lock("leaked")

    def holder():
        yield lock  # acquires, never releases

    def waiter():
        yield lock

    sched.spawn(holder)
    sched.spawn(waiter)
    with pytest.raises(SchedulerDeadlock):
        sched.run()


def test_release_unheld_lock_raises():
    with pytest.raises(RuntimeError):
        CooperativeLock("x").release()


def test_spawn_rejects_plain_function():
    sched = DeterministicScheduler()
    with pytest.raises(TypeError):
        sched.spawn(lambda: None)


def test_run_guards_against_runaway_workers():
    sched = DeterministicScheduler()

    def forever():
        while True:
            yield

    sched.spawn(forever)
    with pytest.raises(RuntimeError, match="exceeded"):
        sched.run(max_steps=100)
