"""Sim == real for the whole epoch loop.

Both shard transports charge the same modelled RPC time to the run's one
``SimClock``, so a fault-free run over real worker processes must report
exactly what the simulated channel reports — every ``EpochMetrics``
field and every clock stage — and its stage accounting must reconcile
with that clock like any other topology's.
"""

import pytest

from repro.train.trainer import TrainerConfig
from tests.train import topologies
from tests.train.test_accounting import _assert_invariants

pytestmark = [pytest.mark.dist, pytest.mark.wallclock]


def _run(clock_mode):
    trainer = topologies.build(
        "dp2-shared-2shards", topologies.dataset(),
        TrainerConfig(epochs=3, batch_size=32),
        clock_mode=clock_mode, rpc_deadline_s=1.0,
    )
    return trainer, trainer.run()


def test_real_transport_epochs_equal_sim_epochs():
    sim, sim_result = _run("sim")
    real, real_result = _run("real")
    assert real.cache_shards == sim.cache_shards == 2
    assert real_result.epochs == sim_result.epochs
    clock = real.workers[0].clock  # the one clock every rank shares
    assert clock.breakdown() == sim.workers[0].clock.breakdown()
    assert clock.stage_seconds("rpc") > 0
    _assert_invariants(real, real_result)
