#!/usr/bin/env python
"""Trace analysis: why importance sampling makes caching possible at all.

Records real access traces — one from uniform random sampling, one from a
trained SpiderCache policy — and replays both through LRU, MinIO, and
Belady's clairvoyant OPT. Under random sampling even the offline optimum is
capped at the cache fraction (and MinIO achieves it); under importance
sampling the same cache budget suddenly has 3x the attainable hit ratio.
That asymmetry is the paper's core thesis, reduced to one table.

Run:  python examples/trace_analysis.py
"""

import numpy as np

from repro.cache.lru import LRUCache
from repro.cache.minio import MinIOCache
from repro.cache.trace import belady_hit_ratio, record_trace, replay
from repro.core.policy import SpiderCachePolicy
from repro.data.registry import make_dataset
from repro.data.synthetic import train_test_split
from repro.nn.models import build_model
from repro.train.trainer import Trainer, TrainerConfig

EPOCHS = 6
CAPACITY_FRACTION = 0.2


def main() -> None:
    data = make_dataset("cifar10-like", rng=0, n_samples=1200)
    train, test = train_test_split(data, test_fraction=0.25, rng=1)
    n = len(train)
    cap = int(CAPACITY_FRACTION * n)

    # Trace 1: uniform random sampling (the PyTorch default).
    rng = np.random.default_rng(2)
    uniform_trace = record_trace(lambda e: rng.permutation(n), epochs=EPOCHS)

    # Trace 2: SpiderCache's importance-weighted sampler at steady state.
    model = build_model("resnet18", train.dim, train.num_classes, rng=3)
    policy = SpiderCachePolicy(cache_fraction=CAPACITY_FRACTION, rng=4)
    Trainer(model, train, test, policy,
            TrainerConfig(epochs=EPOCHS, batch_size=64)).run()
    is_trace = record_trace(policy.epoch_order, epochs=EPOCHS)

    print(f"cache capacity: {cap} items ({CAPACITY_FRACTION:.0%} of {n})\n")
    print(f"{'trace':<22} {'unique':>7} {'LRU':>7} {'MinIO':>7} {'OPT':>7}")
    for name, trace in [("random sampling", uniform_trace),
                        ("importance sampling", is_trace)]:
        lru = replay(trace, LRUCache(cap)).hit_ratio
        minio = replay(trace, MinIOCache(cap)).hit_ratio
        opt = belady_hit_ratio(trace, cap)
        print(f"{name:<22} {trace.unique_count:>7} {lru:>7.3f} "
              f"{minio:>7.3f} {opt:>7.3f}")

    hist = is_trace.frequency_histogram(n)
    print(f"\nimportance-trace frequency skew: max {hist.max()} accesses, "
          f"{(hist == 0).sum()} samples never drawn, "
          f"top-10% of samples receive {np.sort(hist)[::-1][:n // 10].sum() / hist.sum():.0%} "
          f"of all accesses")
    print("\nTakeaway: under random sampling MinIO already achieves the "
          "offline optimum — no cleverness can beat it. The importance "
          "sampler is what creates the locality SpiderCache exploits.")


if __name__ == "__main__":
    main()
