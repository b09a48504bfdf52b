"""Synthetic dataset generator tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import (
    KIND_BOUNDARY,
    KIND_ISOLATED,
    KIND_MISLABELED,
    KIND_WELL,
    make_clustered_dataset,
    train_test_split,
)


@pytest.fixture
def ds():
    return make_clustered_dataset(500, n_classes=5, dim=16, rng=0)


def test_shapes(ds):
    assert ds.X.shape == (500, 16)
    assert ds.y.shape == (500,)
    assert ds.kinds.shape == (500,)
    assert ds.modes.shape == (500,)
    assert ds.centers.shape == (5, 16)
    assert len(ds) == 500
    assert ds.dim == 16
    assert ds.num_classes == 5


def test_labels_in_range(ds):
    assert ds.y.min() >= 0 and ds.y.max() < 5


def test_all_classes_present(ds):
    assert len(np.unique(ds.y)) == 5


def test_kind_fractions_close_to_request():
    ds = make_clustered_dataset(
        2000, n_classes=10, frac_boundary=0.2, frac_isolated=0.1,
        frac_mislabeled=0.05, rng=1,
    )
    f = ds.kind_fractions()
    assert f["boundary"] == pytest.approx(0.2, abs=0.01)
    assert f["isolated"] == pytest.approx(0.1, abs=0.01)
    assert f["mislabeled"] == pytest.approx(0.05, abs=0.01)
    assert f["well"] == pytest.approx(0.65, abs=0.02)


def test_well_samples_near_center(ds):
    well = (ds.kinds == KIND_WELL) & (ds.modes == 0)
    for i in np.flatnonzero(well)[:50]:
        d = np.linalg.norm(ds.X[i] - ds.centers[ds.y[i]])
        assert d < 4 * np.sqrt(ds.dim)  # within a few stds


def test_mislabeled_near_wrong_center(ds):
    mis = np.flatnonzero(ds.kinds == KIND_MISLABELED)
    for i in mis[:20]:
        d_own = np.linalg.norm(ds.X[i] - ds.centers[ds.y[i]])
        d_all = np.linalg.norm(ds.X[i] - ds.centers, axis=1)
        assert d_all.min() < d_own  # closer to some other class


def test_isolated_far_from_center(ds):
    iso = np.flatnonzero(ds.kinds == KIND_ISOLATED)
    well = np.flatnonzero((ds.kinds == KIND_WELL) & (ds.modes == 0))
    d_iso = np.mean(
        [np.linalg.norm(ds.X[i] - ds.centers[ds.y[i]]) for i in iso]
    )
    d_well = np.mean(
        [np.linalg.norm(ds.X[i] - ds.centers[ds.y[i]]) for i in well]
    )
    assert d_iso > 2 * d_well


def test_boundary_between_two_centers(ds):
    b = np.flatnonzero(ds.kinds == KIND_BOUNDARY)
    well = np.flatnonzero((ds.kinds == KIND_WELL) & (ds.modes == 0))
    # Boundary samples sit much closer to a second center than core points.
    def second_center_dist(i):
        return np.sort(np.linalg.norm(ds.X[i] - ds.centers, axis=1))[1]

    b_second = np.mean([second_center_dist(i) for i in b[:30]])
    w_second = np.mean([second_center_dist(i) for i in well[:30]])
    assert b_second < 0.8 * w_second


def test_boundary_on_own_side_by_default(ds):
    """Default boundary range keeps samples closer to their own center."""
    b = np.flatnonzero(ds.kinds == KIND_BOUNDARY)
    own_closer = 0
    for i in b:
        d_all = np.linalg.norm(ds.X[i] - ds.centers, axis=1)
        own_closer += d_all.argmin() == ds.y[i]
    assert own_closer / len(b) > 0.7


def test_boundary_ambiguous_range():
    ds = make_clustered_dataset(
        600, n_classes=5, dim=16, frac_boundary=0.3,
        boundary_w_range=(0.4, 0.6), rng=5,
    )
    b = np.flatnonzero(ds.kinds == KIND_BOUNDARY)
    wrong_side = 0
    for i in b:
        d_all = np.linalg.norm(ds.X[i] - ds.centers, axis=1)
        wrong_side += d_all.argmin() != ds.y[i]
    # Ambiguous range puts a large fraction on the wrong side.
    assert wrong_side / len(b) > 0.25


def test_minority_mode_fraction():
    ds = make_clustered_dataset(2000, n_classes=4, frac_minority=0.25, rng=2)
    well = ds.kinds == KIND_WELL
    frac = ds.modes[well].mean()
    assert frac == pytest.approx(0.25, abs=0.03)


def test_minority_only_on_well_samples(ds):
    assert np.all(ds.modes[ds.kinds != KIND_WELL] == 0)


def test_deterministic_given_seed():
    a = make_clustered_dataset(100, rng=7)
    b = make_clustered_dataset(100, rng=7)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.y, b.y)


def test_invalid_fractions():
    with pytest.raises(ValueError):
        make_clustered_dataset(100, frac_boundary=0.5, frac_isolated=0.5,
                               frac_mislabeled=0.1)
    with pytest.raises(ValueError):
        make_clustered_dataset(100, frac_minority=1.0)
    with pytest.raises(ValueError):
        make_clustered_dataset(3, n_classes=10)


def test_subset_preserves_fields(ds):
    sub = ds.subset(np.arange(50))
    assert len(sub) == 50
    np.testing.assert_array_equal(sub.X, ds.X[:50])
    np.testing.assert_array_equal(sub.modes, ds.modes[:50])


def test_train_test_split_partition(ds):
    train, test = train_test_split(ds, test_fraction=0.2, rng=3)
    assert len(train) + len(test) == len(ds)
    assert len(test) == 100


def test_train_test_split_invalid(ds):
    with pytest.raises(ValueError):
        train_test_split(ds, test_fraction=0.0)


def test_mismatched_arrays_rejected():
    from repro.data.synthetic import SyntheticDataset

    with pytest.raises(ValueError):
        SyntheticDataset(
            name="bad", X=np.zeros((5, 2)), y=np.zeros(4, dtype=np.int64),
            kinds=np.zeros(5, dtype=np.int64), centers=np.zeros((2, 2)),
        )


def test_class_skew_long_tail():
    ds = make_clustered_dataset(2000, n_classes=10, class_skew=1.5, rng=0)
    counts = np.bincount(ds.y, minlength=10)
    assert counts.sum() == 2000
    # Head class dominates; every class keeps at least 2 samples.
    assert counts[0] > 5 * counts[9]
    assert counts.min() >= 2
    # Zipf shape: counts decrease (weakly) with class index.
    assert counts[0] >= counts[4] >= counts[9]


def test_class_skew_zero_balanced():
    ds = make_clustered_dataset(1000, n_classes=10, class_skew=0.0, rng=0)
    counts = np.bincount(ds.y, minlength=10)
    assert counts.max() - counts.min() <= 1


def test_class_skew_validation():
    with pytest.raises(ValueError):
        make_clustered_dataset(100, class_skew=-1.0)


def test_class_skew_nuisance_composable():
    ds = make_clustered_dataset(500, n_classes=5, class_skew=1.0,
                                nuisance_dims=4, nuisance_std=5.0, rng=1)
    assert np.isfinite(ds.X).all()
    assert len(np.unique(ds.y)) == 5


@given(
    n=st.integers(20, 300),
    k=st.integers(2, 10),
    seed=st.integers(0, 1000),
    skew=st.sampled_from([0.0, 0.8, 1.5]),
)
@settings(max_examples=25, deadline=None)
def test_property_generator_valid(n, k, seed, skew):
    if skew > 0 and n < 4 * k:
        n = 4 * k  # skew guarantees >= 2 per class; keep it satisfiable
    ds = make_clustered_dataset(n, n_classes=k, dim=8, class_skew=skew, rng=seed)
    assert len(ds) == n
    assert set(np.unique(ds.kinds)).issubset({0, 1, 2, 3})
    assert ds.y.min() >= 0 and ds.y.max() < k
    assert np.isfinite(ds.X).all()
