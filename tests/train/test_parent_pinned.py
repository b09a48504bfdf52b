"""Pinned behaviour: every registry policy on every topology, per seed.

``fixtures/pinned_runs.json`` holds, for each registry policy, each row of
``topologies.TOPOLOGIES`` the policy ran on when the fixture was recorded,
and seeds 0-2, every ``EpochMetrics`` field of a two-epoch run and every
``stats()`` counter of each distinct policy object. A refactor of the
serve path must reproduce them exactly.

Recipe (run from the repository root; rewrites the fixture):

    PYTHONPATH=src python -m tests.train.test_parent_pinned
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.baselines.registry import POLICIES
from tests.train import topologies

FIXTURE = Path(__file__).parent / "fixtures" / "pinned_runs.json"
SEEDS = (0, 1, 2)


def _record(name, topology, seed, data):
    """``{"epochs": [...], "stats": [...]}`` of one two-epoch run."""

    def make_policy(cache_fraction, rng):
        return POLICIES[name](cache_fraction, rng + 100 * seed)

    trainer = topologies.build(topology, data, policy_cls=make_policy)
    result = trainer.run()
    return {
        "epochs": [dataclasses.asdict(e) for e in result.epochs],
        "stats": [dataclasses.asdict(p.stats()) for p in trainer._policies()],
    }


def _key(name, topology, seed):
    return f"{name}/{topology}/{seed}"


#: Read at import, so the recipe below can run before the fixture exists
#: (the coverage test then fails).
PINNED = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


@pytest.fixture(scope="module")
def data():
    return topologies.dataset()


@pytest.mark.parametrize("key", sorted(PINNED))
def test_run_matches_pinned(key, data):
    name, topology, seed = key.split("/")
    assert _record(name, topology, int(seed), data) == PINNED[key]


def test_pinned_covers_every_policy_on_the_unsharded_rows():
    for name in POLICIES:
        for topology in topologies.TOPOLOGIES:
            if "shards" in topology:
                continue
            for seed in SEEDS:
                assert _key(name, topology, seed) in PINNED


def main():
    data = topologies.dataset()
    out = {}
    for name in POLICIES:
        for topology in topologies.TOPOLOGIES:
            for seed in SEEDS:
                try:
                    out[_key(name, topology, seed)] = _record(
                        name, topology, seed, data
                    )
                except ValueError:
                    continue  # the policy could not run on this topology
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"{len(out)} runs -> {FIXTURE}")


if __name__ == "__main__":
    main()
