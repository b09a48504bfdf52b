"""RPC transports with modelled latency, deadlines and fault injection.

Every cache-protocol call crosses a :class:`Transport`, which charges
modelled per-call latency to the shared
:class:`~repro.storage.clock.SimClock`'s ``"rpc"`` stage and enforces a
**per-call deadline**. :class:`SimRpcChannel` is the in-process
transport; it alone injects faults. Failures are *classified* — the
retry and breaker layers treat them differently:

* :class:`ShardOutageError` — the target shard is inside a
  :class:`~repro.resilience.faults.FaultPlan` outage window. The request
  never reaches the server (connection refused); the caller pays the
  round-trip it took to find out, capped at the deadline. Definite: the
  call did **not** execute.
* :class:`RpcTimeoutError` — the call's (possibly brownout-inflated)
  latency exceeded the deadline. The caller gives up at the deadline but
  the request *did* reach the server and **did execute** — the ambiguous
  failure mode real RPCs have, which is why every shard-server mutation
  is idempotent and the client queues a delete of the orphan a
  timed-out write may have left.

Brownouts never fail a call by themselves; they multiply its latency,
which may push it over the deadline (a brownout-induced timeout is still
a timeout, not an outage).
"""

from __future__ import annotations

import abc
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.observer import NULL_OBSERVER, Observer
from repro.resilience.faults import FaultPlan
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency

__all__ = [
    "RpcError",
    "ShardOutageError",
    "RpcTimeoutError",
    "Transport",
    "SimRpcChannel",
]

#: Simulated bytes of framing/headers added to every call's payload when
#: sampling its latency.
RPC_OVERHEAD_NBYTES = 256
#: Modelled latency of one attempt over its payload size: a
#: datacenter-RPC-like ~0.2 ms per call.
RPC_LATENCY = ConstantLatency(base_s=2e-4, bandwidth_bps=10e9)


class RpcError(RuntimeError):
    """Base class for cache-protocol RPC failures."""

    def __init__(self, shard: int, method: str, detail: str) -> None:
        super().__init__(f"rpc {method} to shard {shard}: {detail}")
        self.shard = int(shard)
        self.method = str(method)


class ShardOutageError(RpcError):
    """The shard is down (fault-plan outage window); call never executed."""


class RpcTimeoutError(RpcError):
    """The call exceeded its deadline; it may still have executed."""


class Transport(abc.ABC):
    """One-attempt RPC transport to a fleet of cache shard servers.

    A transport owns the shard servers' lifetime and carries exactly one
    call attempt — retries, backoff, and circuit breaking live *above* it
    in :class:`~repro.dist.client.ShardedCacheClient`, which works
    unchanged over any implementation. Two ship:

    * :class:`SimRpcChannel` (``name="sim"``) — in-process servers on a
      :class:`~repro.storage.clock.SimClock`; deterministic, supports
      fault injection; the differential-testing oracle.
    * :class:`~repro.dist.transport.RealRpcTransport` (``name="real"``) —
      servers in real worker processes behind a length-prefixed
      ``multiprocessing.connection`` protocol.

    Both charge the same modelled time: :meth:`call` samples
    :data:`RPC_LATENCY` for every attempt and charges the :attr:`STAGE` stage of
    ``clock`` ``deadline_s`` for a timed-out attempt and
    ``min(latency, deadline_s)`` for any other, so a fault-free run
    reads the same clock on either transport.

    Error classification is shared (and parity-tested): a call either
    returns, raises :class:`ShardOutageError` (definitely never
    executed), or raises :class:`RpcTimeoutError` (ambiguous — it *did or
    may have* executed server-side; only the reply is lost). Transports
    also expose a stats surface (``calls`` / ``failures`` / ``timeouts``
    plus ``per_shard_*`` Counters) the client snapshots per shard.
    """

    #: Short mode tag stamped on spans/metrics (``"sim"`` / ``"real"``).
    name: str = "?"
    #: Clock stage charged per attempt.
    STAGE = "rpc"

    def __init__(
        self,
        clock: Optional[SimClock],
        deadline_s: float,
    ) -> None:
        if deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.clock = clock if clock is not None else SimClock()
        self.latency = RPC_LATENCY
        self.deadline_s = float(deadline_s)
        self.calls = 0
        self.failures = 0  # outage-classified attempts
        self.timeouts = 0  # deadline-classified attempts
        self.per_shard_calls = Counter()
        self.per_shard_failures = Counter()
        self.per_shard_timeouts = Counter()
        self._obs = NULL_OBSERVER

    def attach_observer(self, observer: Observer) -> None:
        """Publish per-attempt latency and :meth:`counters` to ``observer``."""
        self._obs = observer
        observer.register(self)

    def counters(self) -> Dict[str, int]:
        """Attempts and failed attempts — fleet-wide, by classification,
        per shard — under the metrics names."""
        failed = self.per_shard_failures + self.per_shard_timeouts
        return {
            "rpc.calls": self.calls,
            "rpc.failures": self.failures + self.timeouts,
            "rpc.errors.outage": self.failures,
            "rpc.errors.timeout": self.timeouts,
            **{f"rpc.shard{s}.calls": n for s, n in self.per_shard_calls.items()},
            **{f"rpc.shard{s}.failures": n for s, n in failed.items()},
        }

    # -- data plane ----------------------------------------------------
    def call(self, shard: int, method: str, *args: Any, nbytes: int = 0) -> Any:
        """One RPC attempt; returns the server method's result.

        Raises :class:`ShardOutageError` / :class:`RpcTimeoutError` per
        the classification above. ``nbytes`` is the payload size (request
        or response, whichever dominates). Counting, classification, and
        observer emission happen here, once, for every backend; a backend
        supplies only :meth:`_attempt`.
        """
        shard = int(shard)
        if not self.has_shard(shard):
            raise RpcError(shard, method, "unknown shard")
        self.calls += 1
        self.per_shard_calls[shard] += 1
        now = self.clock.total_seconds
        outcome, latency_s = self._attempt(
            shard, method, args,
            self.latency.sample(int(nbytes) + RPC_OVERHEAD_NBYTES), now,
        )
        if isinstance(outcome, RpcTimeoutError):
            elapsed = self.deadline_s
        else:
            elapsed = min(latency_s, self.deadline_s)
        self.clock.advance(self.STAGE, elapsed)
        error = None
        if isinstance(outcome, ShardOutageError):
            error = "outage"
            self.failures += 1
            self.per_shard_failures[shard] += 1
        elif isinstance(outcome, RpcTimeoutError):
            error = "timeout"
            self.timeouts += 1
            self.per_shard_timeouts[shard] += 1
        if self._obs.active:
            self._obs.span_record(
                "rpc_attempt", now, now + elapsed,
                shard=shard, method=method, ok=error is None,
                **({} if error is None else {"error": error}),
                transport=self.name,
            )
        if error is not None:
            raise outcome
        return outcome

    @abc.abstractmethod
    def _attempt(
        self, shard: int, method: str, args: Tuple[Any, ...],
        latency_s: float, now: float,
    ) -> Tuple[Any, float]:
        """Carry one attempt to a provisioned ``shard`` at clock time ``now``.

        ``latency_s`` is the attempt's modelled latency. Returns
        ``(outcome, latency_s)``, the latency possibly inflated by an
        injected brownout; :meth:`call` charges it. ``outcome`` is the
        server method's result, or — *returned, not raised* — the
        :class:`ShardOutageError` / :class:`RpcTimeoutError` the attempt
        ended in, so :meth:`call` can account for it before raising.
        """

    @abc.abstractmethod
    def peek(self, shard: int, method: str, *args: Any) -> Any:
        """Control-plane read: no latency charge, no faults, no stats.

        Used by audits (:meth:`ShardedCacheClient.verify_placement`) that
        must not perturb the run's accounting or trip breakers.
        """

    # -- shard lifecycle -----------------------------------------------
    @abc.abstractmethod
    def add_shard(self, shard: int) -> None:
        """Provision an (empty) server for ``shard``; idempotent."""

    @abc.abstractmethod
    def has_shard(self, shard: int) -> bool:
        """Whether ``shard`` currently has a (possibly dead) server."""

    @property
    @abc.abstractmethod
    def shard_ids(self) -> List[int]:
        """Sorted ids of all provisioned shards."""

    def close(self) -> None:
        """Release transport resources (worker processes, sockets)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SimRpcChannel(Transport):
    """Single-attempt simulated RPC to a set of shard servers.

    Retries, backoff, and circuit breaking live *above* this channel (in
    :mod:`repro.dist.retry` / the client); the channel models exactly one
    attempt: latency, deadline, and fault injection.

    ``servers`` is the ``{shard_id: CacheShardServer}`` dict (tests
    reach into live servers through it);
    ``fault_plans`` maps shard ids to their :class:`FaultPlan` (``None``
    or absent = healthy): per-shard outage and brownout windows, evaluated
    against the shared clock.

    Parameters
    ----------
    clock:
        Shared simulated clock; every attempt (including failed ones)
        charges the :attr:`STAGE` stage.
    deadline_s:
        Per-call deadline. Calls whose sampled latency exceeds it charge
        exactly ``deadline_s`` and raise :class:`RpcTimeoutError`.
    """

    name = "sim"

    def __init__(
        self, clock: Optional[SimClock] = None, deadline_s: float = 0.01
    ) -> None:
        super().__init__(clock, deadline_s)
        self.servers: Dict[int, Any] = {}
        self.fault_plans: Dict[int, Optional[FaultPlan]] = {}

    # -- shard lifecycle -----------------------------------------------
    def add_shard(self, shard: int) -> None:
        from repro.dist.server import CacheShardServer

        shard = int(shard)
        if shard not in self.servers:
            self.servers[shard] = CacheShardServer(shard)

    def has_shard(self, shard: int) -> bool:
        return int(shard) in self.servers

    @property
    def shard_ids(self) -> List[int]:
        return sorted(self.servers)

    def peek(self, shard: int, method: str, *args: Any) -> Any:
        """Direct in-process read: free of charge, faults, and stats."""
        server = self.servers.get(int(shard))
        if server is None:
            raise RpcError(int(shard), method, "unknown shard")
        return getattr(server, method)(*args)

    # ------------------------------------------------------------------
    def _attempt(
        self, shard: int, method: str, args: Tuple[Any, ...],
        latency_s: float, now: float,
    ) -> Tuple[Any, float]:
        server = self.servers[shard]
        plan = self.fault_plans.get(shard)
        if plan is not None:
            if plan.outage_active(now):
                # Connection refused: pay the (capped) round trip, no
                # server-side effect.
                return ShardOutageError(
                    shard, method, f"outage at t={now:.3f}s"
                ), latency_s
            latency_s *= plan.latency_multiplier(now)
        if latency_s > self.deadline_s:
            # The caller abandons the call at the deadline, but the
            # request reached the server: it executes anyway (ambiguous
            # timeout — the result is simply lost).
            getattr(server, method)(*args)
            return RpcTimeoutError(
                shard, method,
                f"latency {latency_s * 1e3:.2f}ms exceeded deadline "
                f"{self.deadline_s * 1e3:.2f}ms",
            ), latency_s
        return getattr(server, method)(*args), latency_s
