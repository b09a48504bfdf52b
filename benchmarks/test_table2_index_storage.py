"""E8 — Table 2: HNSW+PQ index storage efficiency.

Reproduces the paper's storage table from the byte-accounting model and
validates the model against an actually-constructed small index + PQ codec.
"""

import numpy as np
from conftest import print_table

from repro.ann.hnsw import HNSWIndex
from repro.ann.index_stats import DATASET_CATALOG, IndexStorageModel
from repro.ann.pq import ProductQuantizer


def _fmt_bytes(b: float) -> str:
    for unit in ["B", "KB", "MB", "GB", "TB", "PB"]:
        if b < 1024:
            return f"{b:.1f}{unit}"
        b /= 1024
    return f"{b:.1f}EB"


def _measure():
    model = IndexStorageModel()
    rows = []
    for name, n, raw, reported in DATASET_CATALOG:
        est = model.index_size_bytes(n)
        rows.append(
            (
                name,
                f"{n:,}",
                _fmt_bytes(raw),
                _fmt_bytes(est),
                f"{model.compression_ratio(n, raw):,.0f}x",
            )
        )

    # Validation: build a real 2000-element index and compare measured
    # in-memory footprint (PQ codes + adjacency) against the model.
    rng = np.random.default_rng(0)
    data = rng.normal(size=(2000, 64))
    idx = HNSWIndex(64, M=16, rng=1)
    idx.add_batch(np.arange(2000), data)
    pq = ProductQuantizer(dim=64, m=32, nbits=8)
    pq.train(data[:500], rng=2)
    codes = pq.encode(data)
    adjacency_bytes = sum(
        4 * len(idx.graph_neighbors(i, layer))
        for i in idx.ids
        for layer in range(idx.node_level(i) + 1)
    )
    measured = codes.nbytes + adjacency_bytes + 16 * 2000
    estimated = model.index_size_bytes(2000)
    return rows, measured, estimated


def test_table2_index_storage(once, benchmark):
    rows, measured, estimated = once(_measure)
    print_table(
        "Table 2: HNSW+PQ index storage efficiency",
        ["dataset", "images", "raw", "index (model)", "compression"],
        rows,
    )
    print(f"validation: measured 2k-element index {measured / 1024:.0f}KB "
          f"vs model estimate {estimated / 1024:.0f}KB")
    benchmark.extra_info["rows"] = rows
    # Model within 3x of a real constructed index.
    assert 1 / 3 < measured / estimated < 3
    # Paper shape: every dataset compresses by >100x.
    for r in rows:
        assert float(r[4].rstrip("x").replace(",", "")) > 100
