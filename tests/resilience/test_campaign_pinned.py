"""Pinned behaviour: the ``repro faults`` campaign, bit for bit.

``fixtures/pinned_campaign.json`` holds, for ``spidercache`` and
``icache``, the clean baseline's accuracy and simulated time and
``dataclasses.asdict`` of every :class:`ScenarioReport` the CLI recipe
``repro faults --policy P --samples 400 --epochs 2`` produces (all four
default scenarios: outage, brownout, preempt, outage+preempt). A change
to the remote read path, the breaker, degraded serving or checkpoint
recovery must reproduce them exactly.

Recipe (run from the repository root; rewrites the fixture):

    PYTHONPATH=src python -m tests.resilience.test_campaign_pinned
"""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from repro import cli
from repro.resilience.campaign import FaultCampaign

FIXTURE = Path(__file__).parent / "fixtures" / "pinned_campaign.json"
POLICIES = ("spidercache", "icache")


def _record(policy, checkpoint_dir):
    """The campaign result of the CLI recipe, as plain JSON values."""
    results = []
    run = FaultCampaign.run

    def keep(self, *args, **kwargs):
        results.append(run(self, *args, **kwargs))
        return results[-1]

    argv = ["faults", "--policy", policy, "--samples", "400", "--epochs", "2",
            "--checkpoint-dir", str(checkpoint_dir)]
    with mock.patch.object(FaultCampaign, "run", keep), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    (result,) = results
    return {
        "clean_accuracy": result.clean_accuracy,
        "clean_time_s": result.clean_time_s,
        "reports": [dataclasses.asdict(r) for r in result.reports],
    }


#: Read at import, so the recipe below can run before the fixture exists.
PINNED = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}


@pytest.mark.parametrize("policy", POLICIES)
def test_campaign_matches_pinned(policy, tmp_path):
    assert _record(policy, tmp_path) == PINNED[policy]


def main():
    out = {}
    for policy in POLICIES:
        with tempfile.TemporaryDirectory() as tmp:
            out[policy] = _record(policy, tmp)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
