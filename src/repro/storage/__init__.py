"""Remote-storage simulator.

Replaces the paper's NFS-over-10GbE datacenter storage (§6.1). Hit ratios
are hardware-independent; end-to-end *time* shape only needs miss-count x
fetch-latency vs per-batch compute cost, which these models provide.
"""

from repro.storage.backends import RemoteStore
from repro.storage.clock import SimClock
from repro.storage.flaky import TransientFetchError
from repro.storage.latency import ConstantLatency
from repro.storage.wrappers import StoreWrapper

__all__ = [
    "StoreWrapper",
    "RemoteStore",
    "SimClock",
    "ConstantLatency",
    "TransientFetchError",
]
