"""Shared config for the whole suite: the one Hypothesis profile file.

Registers Hypothesis profiles when Hypothesis is installed (a job that
installs only numpy+pytest still collects; its property tests importorskip).
Select a profile with ``REPRO_HYPOTHESIS_PROFILE=ci`` — the CI ANN and
dist steps use the bigger example budget. A test that pins
its own ``max_examples`` keeps it under either profile.
"""

import os

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - property tests skip themselves
    settings = None

if settings is not None:
    settings.register_profile("dev", max_examples=50, deadline=None)
    settings.register_profile("ci", max_examples=300, deadline=None)
    settings.load_profile(os.environ.get("REPRO_HYPOTHESIS_PROFILE", "dev"))
