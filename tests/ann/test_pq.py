"""Product Quantization tests."""

import numpy as np
import pytest

from repro.ann.pq import ProductQuantizer


@pytest.fixture
def trained_pq():
    rng = np.random.default_rng(0)
    data = rng.normal(size=(500, 16))
    pq = ProductQuantizer(dim=16, m=4, nbits=4)
    pq.train(data, rng=1)
    return pq, data


def test_invalid_params():
    with pytest.raises(ValueError):
        ProductQuantizer(dim=10, m=3)  # not divisible
    with pytest.raises(ValueError):
        ProductQuantizer(dim=8, m=4, nbits=9)
    with pytest.raises(ValueError):
        ProductQuantizer(dim=8, m=4, nbits=0)


def test_untrained_raises():
    pq = ProductQuantizer(dim=8, m=2)
    with pytest.raises(RuntimeError):
        pq.encode(np.zeros((1, 8)))
    assert pq.codebooks is None


def test_code_shape_and_dtype(trained_pq):
    pq, data = trained_pq
    codes = pq.encode(data[:10])
    assert codes.shape == (10, 4)
    assert codes.dtype == np.uint8
    assert codes.max() < pq.ksub


def test_decode_approximates(trained_pq):
    pq, data = trained_pq
    recon = pq.decode(pq.encode(data))
    err = np.linalg.norm(data - recon, axis=1).mean()
    scale = np.linalg.norm(data, axis=1).mean()
    assert err < scale  # reconstruction is meaningfully better than zero


def test_quantization_error_positive(trained_pq):
    pq, data = trained_pq
    assert pq.quantization_error(data) > 0


def test_more_bits_less_error():
    rng = np.random.default_rng(2)
    data = rng.normal(size=(400, 8))
    errs = []
    for nbits in [2, 4, 6]:
        pq = ProductQuantizer(dim=8, m=2, nbits=nbits)
        pq.train(data, rng=3)
        errs.append(pq.quantization_error(data))
    assert errs[0] > errs[1] > errs[2]


def test_adc_distance_close_to_true(trained_pq):
    pq, data = trained_pq
    codes = pq.encode(data)
    q = data[0]
    adc = pq.adc_distances(q, codes)
    true = np.linalg.norm(data - q, axis=1)
    # ADC approximates the true distance to within quantization error scale.
    assert np.abs(adc - true).mean() < pq.quantization_error(data) * 2 + 1e-9
    # Nearest by ADC should be the query itself.
    assert adc.argmin() == 0


def test_adc_wrong_dim(trained_pq):
    pq, data = trained_pq
    with pytest.raises(ValueError):
        pq.adc_distances(np.zeros(7), pq.encode(data[:2]))


def test_encode_wrong_dim(trained_pq):
    pq, _ = trained_pq
    with pytest.raises(ValueError):
        pq.encode(np.zeros((2, 7)))


def test_decode_wrong_codewidth(trained_pq):
    pq, _ = trained_pq
    with pytest.raises(ValueError):
        pq.decode(np.zeros((2, 3), dtype=np.uint8))


def test_train_fewer_points_than_centroids():
    pq = ProductQuantizer(dim=4, m=2, nbits=8)  # 256 centroids, 10 points
    data = np.random.default_rng(0).normal(size=(10, 4))
    pq.train(data, rng=1)
    codes = pq.encode(data)
    recon = pq.decode(codes)
    assert recon.shape == data.shape


def test_identical_data_zero_error():
    data = np.tile(np.arange(8.0), (50, 1))
    pq = ProductQuantizer(dim=8, m=4, nbits=2)
    pq.train(data, rng=0)
    assert pq.quantization_error(data) == pytest.approx(0.0, abs=1e-9)


def test_kmeans_reseeds_empty_clusters_distinctly(monkeypatch):
    """Two clusters seeded on the same far-away point both go empty on the
    first assignment; the re-seed path must give them *distinct* centroids
    (distances recomputed per seed, chosen points knocked out) instead of
    landing both on the same stale-farthest sample."""
    from repro.ann import pq
    from repro.ann.pq import _kmeans

    monkeypatch.setattr(pq, "KMEANS_ITERS", 5)
    rng = np.random.default_rng(0)
    data = rng.normal(0.0, 0.1, size=(40, 2))  # tight blob near the origin
    far = np.array([[100.0, 100.0], [100.0, 100.0], [0.0, 0.0]])
    centroids = _kmeans(data, k=3, rng=rng, init=far)
    assert centroids.shape == (3, 2)
    # All three centroids pairwise distinct ...
    for a in range(3):
        for b in range(a + 1, 3):
            assert not np.allclose(centroids[a], centroids[b])
    # ... and all pulled into the data's bounding box (no orphaned seeds).
    lo, hi = data.min(axis=0), data.max(axis=0)
    assert np.all(centroids >= lo - 1e-9) and np.all(centroids <= hi + 1e-9)


def test_kmeans_init_shape_mismatch():
    from repro.ann.pq import _kmeans

    data = np.random.default_rng(1).normal(size=(10, 4))
    with pytest.raises(ValueError):
        _kmeans(data, k=3, rng=np.random.default_rng(0),
                init=np.zeros((2, 4)))
