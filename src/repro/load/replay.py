"""Trace replay harness: drive the shard tier, measure tails, autoscale.

:class:`ReplayHarness` replays a :class:`~repro.load.traces.LoadTrace`
against a :class:`~repro.dist.client.ShardedCacheClient` over the
simulated RPC channel and clock, recording one latency per request and
aggregating them into windowed p50/p99/p999 + SLO attainment
(:mod:`repro.load.slo`). An optional
:class:`~repro.load.autoscaler.Autoscaler` watches the windows and
triggers live ring resizes; migrations drain *incrementally* (one batch
per subsequent request) while traffic continues, and
``verify_placement()`` must come back clean after every completed
resize — the PR-5 oracle, now exercised under load.

Determinism: the trace is seeded, the clock is simulated, RPC latency is
deterministic, and the autoscaler is a pure function of windowed stats —
so the entire run (latencies, decisions, report) is bit-identical across
invocations with the same seed. With the autoscaler disabled the harness
issues exactly the per-request ops and nothing else, which is what the
differential suite checks against direct client calls.

Congestion model: shard service capacity is finite. Each window's
offered arrival rate (from the trace timeline) is divided by
``n_shards * service_rate_per_shard`` to get a utilization ρ, and every
RPC's latency is inflated by ``1 / (1 - min(ρ, cap))`` — an M/M/1-style
response-time curve. Growing the ring genuinely lowers per-request
latency under load, which is what gives the autoscaler a real signal
(and a real reward).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.dist.client import ShardedCacheClient
from repro.dist.retry import RetryPolicy
from repro.load.autoscaler import Autoscaler, ScaleDecision
from repro.load.burnrate import (
    DEFAULT_BURN_RULES,
    BurnRateEvaluator,
    BurnRateRule,
)
from repro.load.slo import LatencyStats, SloPolicy, WindowStats
from repro.load.traces import OP_PUT, LoadTrace
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.report import LOAD_FILE
from repro.storage.clock import SimClock
from repro.storage.latency import ConstantLatency, LatencyModel

__all__ = [
    "CongestionLatency",
    "ReplayConfig",
    "ReplayHarness",
    "LoadResult",
    "write_load_artifacts",
    "payload_for",
    "neighbors_for",
    "apply_request",
]

#: Simulated-clock stage names used by the harness.
ARRIVAL_STAGE = "arrival"  # idle time waiting for the next arrival
MISS_STAGE = "load_miss"  # backing-store fetch cost on a cache miss

#: Homophily neighbor-list degree for PUT ops (must be < n_keys).
PUT_DEGREE = 4


class CongestionLatency:
    """Latency model inflating a base by M/M/1 queueing delay.

    ``utilization`` (set by the harness each window, and on resizes) is
    the offered-rate / service-capacity ratio ρ; sampled latencies are
    scaled by ``1 / (1 - min(ρ, max_utilization))``. Deterministic when
    the base model is.
    """

    def __init__(
        self,
        base: Optional[LatencyModel] = None,
        max_utilization: float = 0.9,
    ) -> None:
        if not 0.0 < max_utilization < 1.0:
            raise ValueError("max_utilization must be in (0, 1)")
        self.base = base if base is not None else ConstantLatency(
            base_s=2e-4, bandwidth_bps=10e9
        )
        self.max_utilization = float(max_utilization)
        self.utilization = 0.0

    def factor(self) -> float:
        """Current congestion multiplier (>= 1)."""
        u = min(max(self.utilization, 0.0), self.max_utilization)
        return 1.0 / (1.0 - u)

    def sample(self, nbytes: int) -> float:
        """Base latency for ``nbytes`` inflated by the congestion factor."""
        return self.base.sample(nbytes) * self.factor()


@dataclass(frozen=True)
class ReplayConfig:
    """Tier + service parameters for one replay."""

    total_capacity: int
    imp_ratio: float = 0.8
    n_shards: int = 2
    # "sim" (default): simulated clock + M/M/1 congestion model, paced
    # open-loop from the trace timeline; deterministic and digest-stable.
    # "real": shard servers in worker processes (RealRpcTransport) on a
    # wall clock, driven closed-loop as fast as the hardware allows;
    # latencies are measured, the congestion model is bypassed.
    transport: str = "sim"
    window_requests: int = 1000
    slo: SloPolicy = SloPolicy(target_s=0.02, goal=0.99)
    miss_latency_s: float = 1e-3  # backing-store fetch on a miss
    service_rate_per_shard: float = 2000.0  # req/s before queueing
    rpc_deadline_s: float = 0.05
    rpc_retry_budget: int = 3
    payload_dim: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_capacity < 1:
            raise ValueError("total_capacity must be >= 1")
        if not 0.0 <= self.imp_ratio <= 1.0:
            raise ValueError("imp_ratio must be in [0, 1]")
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.window_requests < 1:
            raise ValueError("window_requests must be >= 1")
        if self.miss_latency_s < 0:
            raise ValueError("miss_latency_s must be >= 0")
        if self.service_rate_per_shard <= 0:
            raise ValueError("service_rate_per_shard must be positive")
        if self.rpc_deadline_s <= 0:
            raise ValueError("rpc_deadline_s must be positive")
        if self.rpc_retry_budget < 1:
            raise ValueError("rpc_retry_budget must be >= 1")
        if self.payload_dim < 1:
            raise ValueError("payload_dim must be >= 1")
        if self.transport not in ("sim", "real"):
            raise ValueError(
                f"transport must be 'sim' or 'real', got {self.transport!r}"
            )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe dict (keys match the ``load.json`` schema)."""
        return {
            "total_capacity": self.total_capacity,
            "imp_ratio": self.imp_ratio,
            "n_shards": self.n_shards,
            "transport": self.transport,
            "window_requests": self.window_requests,
            "slo": self.slo.as_dict(),
            "miss_latency_s": self.miss_latency_s,
            "service_rate_per_shard": self.service_rate_per_shard,
            "rpc_deadline_s": self.rpc_deadline_s,
            "rpc_retry_budget": self.rpc_retry_budget,
            "payload_dim": self.payload_dim,
            "seed": self.seed,
        }


# ----------------------------------------------------------------------
# request semantics (shared with the differential suite)
# ----------------------------------------------------------------------
def payload_for(key: int, dim: int) -> np.ndarray:
    """Deterministic payload for a key (what the backing store serves)."""
    return np.full(int(dim), float(key), dtype=np.float32)


def neighbors_for(key: int, n_keys: int, degree: int = PUT_DEGREE) -> List[int]:
    """Deterministic neighbor list for a PUT's homophily insert."""
    return [(int(key) + j) % int(n_keys) for j in range(1, degree + 1)]


def apply_request(
    client: ShardedCacheClient,
    op: int,
    key: int,
    score: float,
    remote_get,
    n_keys: int,
    payload_dim: int,
) -> Tuple[Any, ...]:
    """Issue one trace request against a client; returns a comparable
    outcome tuple. This is the *entire* per-request interaction — the
    differential suite replays the same calls directly."""
    if op == OP_PUT:
        ok = client.update_homophily(
            int(key),
            payload_for(key, payload_dim),
            neighbors_for(key, n_keys),
        )
        return ("put", int(key), bool(ok))
    out = client.fetch(int(key), float(score), remote_get)
    return ("get", out.requested_id, out.served_id, out.source.value)


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class LoadResult:
    """Everything one replay produced (summary + per-window detail)."""

    config: Dict[str, Any]
    trace_meta: Dict[str, Any]
    n_requests: int
    duration_s: float
    offered_rps: float
    latencies: np.ndarray
    overall: LatencyStats
    slo: SloPolicy
    attainment: float
    windows: List[WindowStats]
    alerts: Dict[str, Any]
    decisions: List[ScaleDecision]
    initial_shards: int
    final_shards: int
    resizes_verified: int
    moved_keys: int
    cache: Dict[str, Any]
    outcomes: Optional[List[Tuple[Any, ...]]] = None
    _digest: Optional[str] = field(default=None, repr=False)

    @property
    def grows(self) -> int:
        return sum(1 for d in self.decisions if d.action == "grow")

    @property
    def shrinks(self) -> int:
        return sum(1 for d in self.decisions if d.action == "shrink")

    @property
    def slo_met(self) -> bool:
        return self.attainment >= self.slo.goal

    def summary(self) -> Dict[str, Any]:
        """JSON-safe run summary (the ``load.json`` schema, sans digest)."""
        worst = max(self.windows, key=lambda w: w.stats.p99_s, default=None)
        return {
            "kind": "load",
            "config": self.config,
            "trace": self.trace_meta,
            "requests": self.n_requests,
            "duration_s": self.duration_s,
            "offered_rps": self.offered_rps,
            "latency": self.overall.as_dict(),
            "slo": {
                **self.slo.as_dict(),
                "attainment": self.attainment,
                "met": self.slo_met,
            },
            "alerts": self.alerts,
            "cache": self.cache,
            "autoscaler": {
                "grows": self.grows,
                "shrinks": self.shrinks,
                "initial_shards": self.initial_shards,
                "final_shards": self.final_shards,
                "resizes_verified": self.resizes_verified,
                "moved_keys": self.moved_keys,
                "decisions": [d.as_dict() for d in self.decisions],
            },
            "windows": [w.as_dict() for w in self.windows],
        }

    def digest(self) -> str:
        """Run fingerprint: canonical summary JSON + raw latency bytes.

        Two invocations with the same seed must produce equal digests —
        the bit-identity acceptance check.
        """
        if self._digest is None:
            h = hashlib.sha256()
            h.update(
                json.dumps(self.summary(), sort_keys=True).encode()
            )
            h.update(np.ascontiguousarray(self.latencies).tobytes())
            self._digest = h.hexdigest()[:16]
        return self._digest


def write_load_artifacts(
    result: LoadResult,
    out_dir: Union[str, Path],
    metrics_snapshot: Optional[Dict[str, Any]] = None,
) -> Path:
    """Export ``load.json`` under ``out_dir`` (consumed by ``repro
    report``'s load / SLO section). Returns the file path.

    ``metrics_snapshot`` (an
    :meth:`~repro.obs.observer.Observer.snapshot`) is embedded
    under ``"metrics"`` so ``repro metrics`` can re-export the run in
    Prometheus text format; it is *not* part of the digest.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc = result.summary()
    doc["digest"] = result.digest()
    if metrics_snapshot is not None:
        doc["metrics"] = metrics_snapshot
    path = out / LOAD_FILE
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    return path


# ----------------------------------------------------------------------
# the harness
# ----------------------------------------------------------------------
class ReplayHarness:
    """Replays traces against a fresh sharded tier.

    Parameters
    ----------
    config:
        Tier + service parameters.
    autoscaler:
        Optional :class:`Autoscaler`; ``None`` replays at the fixed
        initial shard count (the differential-testing mode).
    fault_plans:
        Optional ``{shard_id: FaultPlan}`` injected into the RPC
        channel — replay under outages/brownouts.
    observer:
        Receives ``on_load_window`` / ``on_autoscale`` / ``on_alert``
        hooks plus all the client's RPC/breaker instrumentation; with
        span tracing enabled the run/window/request span hierarchy is
        emitted through it too.
    burn_rules:
        Burn-rate alert rules evaluated over the windows
        (:data:`~repro.load.burnrate.DEFAULT_BURN_RULES` by default;
        pass ``()`` to disable alerting).
    """

    def __init__(
        self,
        config: ReplayConfig,
        autoscaler: Optional[Autoscaler] = None,
        fault_plans: Optional[Dict[int, Any]] = None,
        observer: Optional[Observer] = None,
        burn_rules: Optional[Tuple[BurnRateRule, ...]] = None,
    ) -> None:
        self.config = config
        self.autoscaler = autoscaler
        self.burn_rules = (
            DEFAULT_BURN_RULES if burn_rules is None else tuple(burn_rules)
        )
        if config.transport == "real":
            if fault_plans:
                raise ValueError(
                    "fault plans are a simulation feature; wall-clock chaos "
                    "uses the real transport's kill_shard"
                )
            self.latency: Optional[CongestionLatency] = None
            self.client = ShardedCacheClient(
                config.total_capacity,
                imp_ratio=config.imp_ratio,
                n_shards=config.n_shards,
                transport="real",
                deadline_s=config.rpc_deadline_s,
                retry=RetryPolicy(
                    max_attempts=config.rpc_retry_budget,
                    seed=config.seed,
                ),
            )
            self.clock = self.client.clock  # the transport's WallClock
        else:
            self.clock = SimClock()
            self.latency = CongestionLatency()
            self.client = ShardedCacheClient(
                config.total_capacity,
                imp_ratio=config.imp_ratio,
                n_shards=config.n_shards,
                clock=self.clock,
                latency=self.latency,
                deadline_s=config.rpc_deadline_s,
                retry=RetryPolicy(
                    max_attempts=config.rpc_retry_budget,
                    seed=config.seed,
                ),
                fault_plans=fault_plans,
            )
        self._obs = observer if observer is not None else NULL_OBSERVER
        if observer is not None:
            self.client.attach_observer(observer)
        self._resizes_verified = 0

    def close(self) -> None:
        """Release the shard tier (worker processes in real mode);
        idempotent, no-op over the simulated channel."""
        self.client.close()

    # ------------------------------------------------------------------
    def _remote_get(self, index: int):
        """Backing-store fetch on a miss (charges the miss latency)."""
        if self.config.miss_latency_s:
            self.clock.advance(MISS_STAGE, self.config.miss_latency_s)
        return payload_for(index, self.config.payload_dim)

    def _effective_shards(self) -> int:
        """Shard count used for capacity math: the migration target
        while a resize drains (grown servers serve immediately; a
        shrinking fleet should be provisioned for its end state)."""
        mig = self.client.migration
        if mig is not None:
            return mig.new_n_shards
        return self.client.n_shards

    def _set_utilization(self, offered_rps: float) -> float:
        rho = offered_rps / (
            self.config.service_rate_per_shard * self._effective_shards()
        )
        if self.latency is not None:  # real transport: latency is real
            self.latency.utilization = rho
        return rho

    def _finish_migration_step(self) -> None:
        """Drain one migration batch per request; verify at completion."""
        client = self.client
        if client.migration is None:
            return
        client.continue_migration(max_batches=1)
        if client.migration is None:  # just finalized
            violations = client.verify_placement()
            if violations:
                raise RuntimeError(
                    f"verify_placement failed after resize: "
                    f"{len(violations)} violation(s), e.g. {violations[0]}"
                )
            self._resizes_verified += 1

    def _drain_migration_fully(self, max_rounds: int = 1000) -> None:
        """End-of-trace drain: keep attempting pending batches, ticking
        the clock between rounds so open breakers can half-open."""
        client = self.client
        rounds = 0
        while client.migration is not None:
            rounds += 1
            if rounds > max_rounds:
                raise RuntimeError(
                    "migration failed to drain after "
                    f"{max_rounds} rounds (shard permanently down?)"
                )
            client.continue_migration()
            if client.migration is not None:
                self.clock.advance(ARRIVAL_STAGE, 0.01)
        if rounds:
            violations = client.verify_placement()
            if violations:
                raise RuntimeError(
                    f"verify_placement failed after final drain: "
                    f"{len(violations)} violation(s), e.g. {violations[0]}"
                )
            self._resizes_verified += 1

    # ------------------------------------------------------------------
    def run(
        self, trace: LoadTrace, record_outcomes: bool = False
    ) -> LoadResult:
        """Replay ``trace`` start to finish; returns the
        :class:`LoadResult` (raises if a resize fails verification)."""
        cfg = self.config
        client = self.client
        obs = self._obs
        n = len(trace)
        w = cfg.window_requests
        latencies = np.zeros(n, dtype=np.float64)
        outcomes: Optional[List[Tuple[Any, ...]]] = (
            [] if record_outcomes else None
        )
        windows: List[WindowStats] = []
        burn = BurnRateEvaluator(cfg.slo.goal, self.burn_rules)
        initial_shards = client.n_shards
        moved_before = 0  # moved_keys accumulates across MigrationStates
        total_moved = 0
        run_span = (
            obs.span_start("load_run", self.clock.total_seconds, requests=n)
            if obs.active else None
        )

        keys = trace.keys
        ops = trace.ops
        scores = trace.scores
        arrival = trace.arrival_s

        # Per-window offered rates, straight from the (open-loop) trace
        # timeline — known up front, so window w's congestion reflects
        # window w's own arrival pressure.
        starts = list(range(0, n, w))
        for wi, lo in enumerate(starts):
            hi = min(lo + w, n)
            span = float(arrival[hi - 1] - arrival[lo]) if hi - lo > 1 else 0.0
            offered = (hi - lo) / span if span > 0 else float(
                cfg.service_rate_per_shard
            )
            rho = self._set_utilization(offered)
            win_span = (
                obs.span_start("window", self.clock.total_seconds, window=wi)
                if obs.active else None
            )

            for i in range(lo, hi):
                t_arr = float(arrival[i])
                now = self.clock.total_seconds
                if cfg.transport == "sim" and t_arr > now:
                    # Open-loop pacing from the trace timeline (sim only:
                    # a wall-clock replay runs closed-loop, as fast as
                    # the shard fleet will go).
                    self.clock.advance(ARRIVAL_STAGE, t_arr - now)
                before = self.clock.total_seconds
                out = apply_request(
                    client, int(ops[i]), int(keys[i]), float(scores[i]),
                    self._remote_get, trace.n_keys, cfg.payload_dim,
                )
                latencies[i] = self.clock.total_seconds - before
                if outcomes is not None:
                    outcomes.append(out)
                if client.migration is not None:
                    mig = client.migration
                    self._finish_migration_step()
                    if client.migration is None:
                        total_moved += mig.moved_keys - moved_before
                        moved_before = 0

            window_lat = latencies[lo:hi]
            stats = LatencyStats.from_samples(window_lat)
            window = WindowStats(
                window=wi,
                n=hi - lo,
                stats=stats,
                attainment=cfg.slo.attainment(window_lat),
                offered_rps=offered,
                utilization=rho,
                n_shards=self._effective_shards(),
            )
            windows.append(window)
            if obs.active:
                obs.on_load_window(
                    wi, window.n, stats.p50_s, stats.p99_s, stats.p999_s,
                    window.attainment, offered, rho, window.n_shards,
                )
            for alert in burn.observe(wi, window.attainment, window.n):
                if obs.active:
                    obs.on_alert(
                        alert.rule, alert.state, alert.window,
                        alert.burn_short, alert.burn_long, alert.threshold,
                    )
            if self.autoscaler is not None:
                decision = self.autoscaler.observe(
                    window,
                    resident_keys=len(client),
                    migration_in_flight=client.migration is not None,
                )
                if decision is not None:
                    client.resize(decision.new_n, drain=False)
                    if client.migration is not None:
                        moved_before = 0
                    # Re-derive congestion for the new fleet size at the
                    # current window's offered rate.
                    rho = self._set_utilization(offered)
                    if obs.active:
                        obs.on_autoscale(
                            decision.action, decision.old_n, decision.new_n,
                            decision.window, decision.reason,
                            decision.p99_s, decision.utilization,
                        )
            if obs.active:
                obs.span_end(win_span, self.clock.total_seconds)

        if client.migration is not None:
            mig = client.migration
            self._drain_migration_fully()
            total_moved += mig.moved_keys - moved_before
        if obs.active:
            obs.span_end(run_span, self.clock.total_seconds)

        stats = client.stats
        decisions = (
            list(self.autoscaler.decisions) if self.autoscaler else []
        )
        overall = LatencyStats.from_samples(latencies)
        return LoadResult(
            config=cfg.as_dict(),
            trace_meta=dict(trace.meta),
            n_requests=n,
            duration_s=trace.duration_s,
            offered_rps=trace.offered_rps,
            latencies=latencies,
            overall=overall,
            slo=cfg.slo,
            attainment=cfg.slo.attainment(latencies),
            windows=windows,
            alerts=burn.as_dict(),
            decisions=decisions,
            initial_shards=initial_shards,
            final_shards=client.n_shards,
            resizes_verified=self._resizes_verified,
            moved_keys=total_moved,
            cache={
                "hit_ratio": client.hit_ratio,
                "hits": stats.hits,
                "substitute_hits": stats.substitute_hits,
                "misses": stats.misses,
                "degraded_serves": stats.degraded_serves,
                "dropped_admits": client.dropped_admits,
                "degraded_lookups": client.degraded_lookups,
                "rpc_retries": client.rpc_retries,
                "resident": len(client),
            },
            outcomes=outcomes,
        )
