"""Remote-storage simulator.

Replaces the paper's NFS-over-10GbE datacenter storage (§6.1). Hit ratios
are hardware-independent; end-to-end *time* shape only needs miss-count x
fetch-latency vs per-batch compute cost, which these models provide.
The spot-VM failure modes of that tier (outage and brownout windows, a
circuit breaker) are enforced by
:class:`~repro.storage.backends.RemoteStore` itself once a fault
campaign assigns its ``fault_plan`` and ``breaker``; an unreachable tier
answers ``None``, never raises.
"""
