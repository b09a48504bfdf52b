"""Shard-tier test settings that the program fixes as constants."""

import pytest

from repro.dist import retry


@pytest.fixture(scope="module")
def no_jitter():
    """Exact backoff schedules: retry jitter off for a whole test module
    (module scope, so Hypothesis tests may use it too)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(retry, "JITTER", 0.0)
        yield
