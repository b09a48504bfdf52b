"""Fault campaigns: sweep fault scenarios and report the damage.

A campaign first runs the configuration *clean* (no faults) to establish
the accuracy/time baseline and the run's simulated duration, then replays
it under each :class:`FaultScenario` with the fault machinery engaged:
the trainer's remote store gets the scenario's
:class:`~repro.resilience.faults.FaultPlan` and a
:class:`~repro.resilience.breaker.CircuitBreaker` (the policy's semantic
cache serves degraded whenever the store answers ``None``), and
preemptions are driven by a
:class:`~repro.resilience.preemption.PreemptionSchedule` through a
:class:`~repro.resilience.trainer.ResilientTrainer`.

Scenario windows are expressed as *fractions* of the clean run's simulated
duration, so one scenario set works across datasets, models, and epoch
counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import BrownoutWindow, FaultPlan, OutageWindow
from repro.resilience.preemption import PreemptionSchedule
from repro.resilience.trainer import RECOVERY_STAGE, ResilientTrainer

__all__ = [
    "FaultScenario",
    "ScenarioReport",
    "CampaignResult",
    "FaultCampaign",
    "DEFAULT_SCENARIOS",
]

#: The store breaker's cool-down, as a fraction of the clean run's duration.
BREAKER_COOLDOWN_FRAC = 0.02


@dataclass(frozen=True)
class FaultScenario:
    """One fault configuration to sweep.

    ``outages`` are ``(start_frac, end_frac)`` pairs and ``brownouts``
    ``(start_frac, end_frac, multiplier)`` triples, both fractions of the
    clean run's total simulated time. ``preempt_at`` are absolute
    ``(epoch, batch)`` kill points.
    """

    name: str
    outages: Tuple[Tuple[float, float], ...] = ()
    brownouts: Tuple[Tuple[float, float, float], ...] = ()
    preempt_at: Tuple[Tuple[int, int], ...] = ()
    restart_penalty_s: float = 0.0

    def build_plan(self, total_s: float) -> FaultPlan:
        """Resolve fractional windows against the clean run's duration."""
        return FaultPlan(
            outages=[OutageWindow(f0 * total_s, f1 * total_s) for f0, f1 in self.outages],
            brownouts=[
                BrownoutWindow(f0 * total_s, f1 * total_s, mult)
                for f0, f1, mult in self.brownouts
            ],
        )


DEFAULT_SCENARIOS: Tuple[FaultScenario, ...] = (
    FaultScenario("outage", outages=((0.20, 0.35),)),
    FaultScenario("brownout", brownouts=((0.10, 0.60, 8.0),)),
    FaultScenario("preempt", preempt_at=((1, 2),), restart_penalty_s=5.0),
    FaultScenario(
        "outage+preempt",
        outages=((0.25, 0.40),),
        preempt_at=((1, 2),),
        restart_penalty_s=5.0,
    ),
)


@dataclass
class ScenarioReport:
    """What one scenario did to the run, relative to the clean baseline."""

    scenario: str
    completed: bool
    final_accuracy: float = 0.0
    accuracy_delta: float = 0.0  # scenario - clean
    total_time_s: float = 0.0
    time_overhead_s: float = 0.0  # scenario - clean
    recovery_s: float = 0.0  # restart penalties charged
    restarts: int = 0
    replayed_batches: int = 0
    lost_s: float = 0.0
    checkpoints_written: int = 0
    degraded_substituted: int = 0
    degraded_skipped: int = 0
    errors_absorbed: int = 0
    breaker_opens: int = 0
    breaker_fast_failures: int = 0
    breaker_open_s: float = 0.0  # total open->reclose span
    outage_failures: int = 0
    brownout_extra_s: float = 0.0
    error: str = ""


@dataclass
class CampaignResult:
    clean_accuracy: float
    clean_time_s: float
    reports: List[ScenarioReport] = field(default_factory=list)

    def format_table(self) -> str:
        """Human-readable summary table of every scenario report."""
        lines = [
            f"clean baseline: accuracy {self.clean_accuracy:.3f}, "
            f"simulated time {self.clean_time_s:.1f}s",
            f"{'scenario':<16} {'ok':>3} {'acc':>7} {'d_acc':>7} "
            f"{'time':>8} {'d_time':>8} {'restarts':>8} {'degraded':>8} "
            f"{'skipped':>8} {'opens':>6}",
        ]
        for r in self.reports:
            lines.append(
                f"{r.scenario:<16} {'y' if r.completed else 'N':>3} "
                f"{r.final_accuracy:>7.3f} {r.accuracy_delta:>+7.3f} "
                f"{r.total_time_s:>7.1f}s {r.time_overhead_s:>+7.1f}s "
                f"{r.restarts:>8} {r.degraded_substituted:>8} "
                f"{r.degraded_skipped:>8} {r.breaker_opens:>6}"
            )
        return "\n".join(lines)


class FaultCampaign:
    """Runs scenarios over fresh trainers from a factory.

    ``make_trainer`` must return a *fresh, identically-configured*
    :class:`ResilientTrainer` on every call (fresh model, policy, RNGs) —
    the campaign compares runs, so shared mutable state between scenarios
    would poison the comparison. The factory receives the scenario's
    checkpoint directory and, for fault scenarios, the preemption
    schedule and restart penalty to install.
    """

    def __init__(
        self,
        make_trainer: Callable[..., ResilientTrainer],
        checkpoint_root: Path,
        scenarios: Sequence[FaultScenario] = DEFAULT_SCENARIOS,
    ) -> None:
        self.make_trainer = make_trainer
        self.checkpoint_root = Path(checkpoint_root)
        self.scenarios = list(scenarios)

    # ------------------------------------------------------------------
    def _instrument(self, trainer: ResilientTrainer, plan: FaultPlan) -> None:
        trainer.store.fault_plan = plan
        trainer.store.breaker = CircuitBreaker(
            cooldown_s=BREAKER_COOLDOWN_FRAC * self._clean_time_s
        )

    def run(self, verbose: bool = False, log=print) -> CampaignResult:
        """Run the clean baseline, then every scenario; returns all reports."""
        # Clean baseline: no fault plan, no breaker.
        clean = self.make_trainer(
            checkpoint_dir=self.checkpoint_root / "clean",
            preemptions=None,
            restart_penalty_s=0.0,
        )
        clean_result = clean.run()
        self._clean_time_s = clean.clock.total_seconds
        result = CampaignResult(
            clean_accuracy=clean_result.final_accuracy,
            clean_time_s=self._clean_time_s,
        )
        if verbose:
            log(
                f"clean: accuracy {result.clean_accuracy:.3f}, "
                f"time {result.clean_time_s:.1f}s"
            )

        for scenario in self.scenarios:
            result.reports.append(self._run_scenario(scenario, result))
            if verbose:
                r = result.reports[-1]
                log(
                    f"{scenario.name}: "
                    + (
                        f"accuracy {r.final_accuracy:.3f} "
                        f"({r.accuracy_delta:+.3f}), "
                        f"time {r.total_time_s:.1f}s ({r.time_overhead_s:+.1f}s)"
                        if r.completed
                        else f"FAILED: {r.error}"
                    )
                )
        return result

    def _run_scenario(
        self, scenario: FaultScenario, campaign: CampaignResult
    ) -> ScenarioReport:
        plan = scenario.build_plan(campaign.clean_time_s)
        schedule = (
            PreemptionSchedule(at=scenario.preempt_at)
            if scenario.preempt_at
            else None
        )
        trainer = self.make_trainer(
            checkpoint_dir=self.checkpoint_root / scenario.name,
            preemptions=schedule,
            restart_penalty_s=scenario.restart_penalty_s,
        )
        self._instrument(trainer, plan)
        report = ScenarioReport(scenario=scenario.name, completed=False)
        try:
            run = trainer.run()
        except Exception as exc:  # a scenario failing is a *finding*
            report.error = f"{type(exc).__name__}: {exc}"
            return report

        report.completed = True
        report.final_accuracy = run.final_accuracy
        report.accuracy_delta = run.final_accuracy - campaign.clean_accuracy
        report.total_time_s = trainer.clock.total_seconds
        report.time_overhead_s = report.total_time_s - campaign.clean_time_s
        report.recovery_s = trainer.clock.stage_seconds(RECOVERY_STAGE)
        report.restarts = trainer.recovery.restarts
        report.replayed_batches = trainer.recovery.replayed_batches
        report.lost_s = trainer.recovery.lost_s
        report.checkpoints_written = trainer.recovery.checkpoints_written
        cache = trainer.policy.cache
        report.degraded_substituted = cache.stats.degraded_serves
        report.degraded_skipped = cache.skipped
        report.errors_absorbed = cache.errors_absorbed
        store = trainer.store
        breaker = store.breaker
        report.breaker_opens = breaker.opens
        report.breaker_fast_failures = breaker.fast_failures
        report.breaker_open_s = sum(
            (closed - opened)
            for opened, closed in breaker.reopen_close_pairs()
            if closed is not None
        )
        report.outage_failures = store.outage_failures
        report.brownout_extra_s = store.brownout_extra_s
        return report
