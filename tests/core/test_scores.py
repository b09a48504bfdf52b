"""GlobalScoreTable tests."""

import numpy as np
import pytest

from repro.core.scores import GlobalScoreTable, last_occurrences


def test_initial_scores_uniform():
    t = GlobalScoreTable(10)
    assert len(t) == 10
    np.testing.assert_array_equal(t.scores, np.ones(10))
    assert t._ever_updated.mean() == 0.0


def test_invalid_init():
    with pytest.raises(ValueError):
        GlobalScoreTable(0)


def test_update_and_get():
    t = GlobalScoreTable(5)
    t.update(np.array([1, 3]), np.array([0.5, 2.0]))
    assert t.get(1) == 0.5
    assert t.get(3) == 2.0
    assert t.get(0) == 1.0
    assert t._ever_updated.mean() == pytest.approx(0.4)


def test_update_shape_mismatch():
    t = GlobalScoreTable(5)
    with pytest.raises(ValueError):
        t.update(np.array([1]), np.array([0.5, 1.0]))


def test_negative_scores_rejected():
    t = GlobalScoreTable(5)
    with pytest.raises(ValueError):
        t.update(np.array([0]), np.array([-0.1]))


def test_scores_view_readonly():
    t = GlobalScoreTable(3)
    with pytest.raises(ValueError):
        t.scores[0] = 2.0


def test_sampling_weights_normalized():
    t = GlobalScoreTable(8)
    t.update(np.arange(8), np.linspace(0.1, 2.0, 8))
    w = t.sampling_weights()
    assert w.sum() == pytest.approx(1.0)
    assert np.all(w > 0)
    assert w.argmax() == 7


def test_sampling_weights_floor():
    t = GlobalScoreTable(3)
    t.update(np.array([0]), np.array([0.0]))
    w = t.sampling_weights()
    assert w[0] > 0


def test_snapshot_std_only_updated():
    t = GlobalScoreTable(10)
    # Before any update: zero (all defaults).
    assert t.snapshot_std() == 0.0
    t.update(np.array([0, 1]), np.array([1.0, 3.0]))
    std = t.snapshot_std()
    assert std == pytest.approx(1.0)  # std of [1, 3]
    assert t.std_history == [0.0, std]


def test_last_occurrences_keeps_the_last_of_each_id_in_id_order():
    ids = np.array([7, 2, 7, 5, 2, 7])
    pos = last_occurrences(ids)
    np.testing.assert_array_equal(pos, [4, 3, 5])  # ids 2, 5, 7
    np.testing.assert_array_equal(ids[pos], [2, 5, 7])
    assert last_occurrences(np.array([], dtype=np.int64)).size == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_rejected(bad):
    """A diverged model's NaN/inf loss is refused at the write, naming the
    first offending sample, and leaves the table untouched."""
    t = GlobalScoreTable(5)
    with pytest.raises(ValueError, match="sample 3 is not finite"):
        t.update(np.array([1, 3, 4]), np.array([0.5, bad, bad]))
    np.testing.assert_array_equal(t.scores, np.ones(5))
    assert t._ever_updated.mean() == 0.0
