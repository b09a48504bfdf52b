"""SimClock tests."""

import pytest

from repro.storage.clock import SimClock


def test_advance_and_totals():
    c = SimClock()
    c.advance("load", 1.5)
    c.advance("compute", 0.5)
    c.advance("load", 0.5)
    assert c.stage_seconds("load") == 2.0
    assert c.total_seconds == 2.5


def test_unknown_stage_zero():
    assert SimClock().stage_seconds("nope") == 0.0


def test_negative_rejected():
    with pytest.raises(ValueError):
        SimClock().advance("x", -1.0)


def test_load_state_dict_replaces_every_stage():
    c = SimClock()
    c.advance("a", 1.0)
    c.load_state_dict({"b": 0.5})
    assert c.breakdown() == {"b": 0.5}
    c.load_state_dict({})
    assert c.total_seconds == 0.0


def test_breakdown_is_copy():
    c = SimClock()
    c.advance("a", 1.0)
    d = c.breakdown()
    d["a"] = 99.0
    assert c.stage_seconds("a") == 1.0
