"""E2 — Fig. 3(b): LRU/LFU hit rates under random sampling.

Paper: both classic policies perform poorly because per-epoch random
permutation destroys reuse locality; hit rates stay far below the cache
fraction until the cache approaches the dataset size.
"""

import numpy as np
from conftest import print_table

from repro.cache.lfu import LFUCache
from repro.cache.lru import LRUCache

CACHE_FRACTIONS = [0.10, 0.25, 0.50, 0.75]
N = 2000
EPOCHS = 5


def _sweep():
    rng = np.random.default_rng(0)
    rows = []
    for frac in CACHE_FRACTIONS:
        cap = int(frac * N)
        results = {}
        for name, cls in [("LRU", LRUCache), ("LFU", LFUCache)]:
            cache = cls(cap)
            for _ in range(EPOCHS):
                for i in rng.permutation(N):
                    if cache.lookup(int(i)) is None:
                        cache.admit(int(i), 0.0, i)
            results[name] = cache.stats.hit_ratio
        rows.append(
            (f"{frac:.0%}", f"{results['LRU']:.3f}", f"{results['LFU']:.3f}")
        )
    return rows


def test_fig3b_lru_lfu_hit_rates(once, benchmark):
    rows = once(_sweep)
    print_table(
        "Fig 3(b): LRU/LFU hit ratio vs cache size (random sampling)",
        ["cache size", "LRU", "LFU"],
        rows,
    )
    benchmark.extra_info["rows"] = rows
    lru = [float(r[1]) for r in rows]
    # Shape: hit rate grows with cache size but stays well below the
    # fraction except at very large caches.
    assert all(a <= b + 1e-9 for a, b in zip(lru, lru[1:]))
    assert lru[0] < 0.05  # 10% cache nearly useless
    assert lru[1] < 0.25 / 2  # far below the cache fraction
