"""Shared helpers for the experiment benchmarks.

Every bench regenerates one paper table or figure (see DESIGN.md's
per-experiment index). Heavy experiments run exactly once per bench
invocation (``benchmark.pedantic(..., rounds=1, iterations=1)``); the
figures'/tables' data rows are printed to stdout and attached to
``benchmark.extra_info`` so they land in pytest-benchmark's JSON output.

Scale note: dataset sizes and epoch counts are scaled down from the paper
(simulator on one CPU vs 100-epoch GPU runs); the *shapes* — orderings,
crossovers, rough factors — are what the benches assert.
"""

from __future__ import annotations

import pytest

from repro.baselines.registry import POLICIES
from repro.data.registry import make_dataset
from repro.data.synthetic import train_test_split
from repro.nn.models import build_model
from repro.train.metrics import TrainResult
from repro.train.trainer import Trainer, TrainerConfig


def make_split(preset: str = "cifar10-like", n_samples: int = 1200, seed: int = 0,
               **overrides):
    """Scaled-down dataset split for a bench run."""
    ds = make_dataset(preset, rng=seed, n_samples=n_samples, **overrides)
    return train_test_split(ds, test_fraction=0.25, rng=seed + 1)


def run_policy(
    policy_name: str,
    cache_fraction: float = 0.2,
    preset: str = "cifar10-like",
    n_samples: int = 1200,
    model_name: str = "resnet18",
    epochs: int = 10,
    batch_size: int = 64,
    seed: int = 0,
    split=None,
) -> TrainResult:
    """One full training run of a named policy."""
    train, test = split if split is not None else make_split(preset, n_samples, seed)
    model = build_model(model_name, train.dim, train.num_classes, rng=seed + 2)
    policy = POLICIES[policy_name](cache_fraction, seed + 3)
    cfg = TrainerConfig(epochs=epochs, batch_size=batch_size)
    return Trainer(model, train, test, policy, cfg).run()


def print_table(title: str, header: list, rows: list) -> None:
    """Render one experiment table to stdout."""
    widths = [
        max(len(str(header[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(header))
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


@pytest.fixture
def once(benchmark):
    """Run a heavy experiment exactly once under pytest-benchmark."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
