"""Index storage-model tests (Table 2 accounting)."""

import pytest

from repro.ann import index_stats
from repro.ann.index_stats import DATASET_CATALOG, IndexStorageModel


def test_bytes_per_element_positive():
    m = IndexStorageModel()
    assert m.bytes_per_element() > 0


def test_size_scales_linearly():
    m = IndexStorageModel()
    assert m.index_size_bytes(2_000) == pytest.approx(2 * m.index_size_bytes(1_000))


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        IndexStorageModel().index_size_bytes(-1)


def test_compression_ratio():
    m = IndexStorageModel()
    n = 1_200_000
    raw = 138 * 1024**3
    ratio = m.compression_ratio(n, raw)
    # ImageNet-1K: paper reports ~1029x; the accounting should land within
    # the same order of magnitude.
    assert 200 <= ratio <= 5000


def test_catalog_rows_match_order_of_magnitude():
    m = IndexStorageModel()
    for name, n, raw, reported_idx in DATASET_CATALOG:
        est = m.index_size_bytes(n)
        # Estimate within 20x of the paper's reported index size.
        assert est / reported_idx < 20 and reported_idx / est < 20, name


def test_larger_M_bigger_index(monkeypatch):
    monkeypatch.setattr(index_stats, "HNSW_M", 8)
    small = IndexStorageModel().index_size_bytes(1000)
    monkeypatch.setattr(index_stats, "HNSW_M", 32)
    big = IndexStorageModel().index_size_bytes(1000)
    assert big > small


def test_zero_elements():
    assert IndexStorageModel().index_size_bytes(0) == 0.0
