"""Fault-tolerant training runtime: fault injection, degraded serving, recovery.

The paper motivates SpiderCache with training on "low-cost GPU Spot VMs
... prone to termination" over remote storage. This package makes that
deployment a first-class, *simulatable* part of the reproduction:

* :mod:`~repro.resilience.faults` — deterministic fail-stop outage and
  latency-brownout windows on the simulated clock;
* :mod:`~repro.resilience.breaker` — a circuit breaker for a remote read
  path (closed / open / half-open, simulated-clock cool-down);
* :mod:`~repro.resilience.preemption` — spot-VM kill schedules;
* :mod:`~repro.resilience.trainer` — checkpoint-restart training with
  bit-exact resume;
* :mod:`~repro.resilience.campaign` — scenario sweeps reporting recovery
  cost, degraded-serving counts, and accuracy deltas (the ``repro
  faults`` CLI).

The remote store enforces a fault plan and a breaker itself, once a
campaign assigns them to its ``fault_plan`` and ``breaker``
(:meth:`~repro.storage.backends.RemoteStore.get`); while the tier is
unreachable it answers ``None`` and the semantic cache serves degraded.
"""
