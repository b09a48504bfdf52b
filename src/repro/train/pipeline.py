"""Three-stage pipeline model (paper §5, Table 1, Fig. 12).

The paper splits each mini-batch into Stage1 (data loading + forward),
Stage2 (backward + optimizer), and IS (graph-based importance computation).
IS depends on Stage1's embeddings, so it can overlap Stage2
(Fig. 12(a)) and, for long-IS models like AlexNet/VGG16, also the *next*
batch's Stage1 (Fig. 12(b)). ``PipelineSimulator`` schedules N batches under
either mode and reports the visible IS overhead — which the paper's
measurements show is fully hidden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Literal

from repro.nn.models import MODEL_ZOO, ModelSpec

__all__ = ["StageCostModel", "PipelineSimulator", "ScheduledInterval"]

#: Batch size the Table-1 millisecond costs assume; a batch of ``n`` costs
#: ``n / REFERENCE_BATCH`` of them.
REFERENCE_BATCH = 128

OverlapMode = Literal["none", "stage2", "stage2+next_stage1"]


@dataclass(frozen=True)
class StageCostModel:
    """Per-mini-batch stage costs in milliseconds (Table 1 rows)."""

    stage1_ms: float
    stage2_ms: float
    is_ms: float

    @classmethod
    def from_spec(cls, spec: ModelSpec) -> "StageCostModel":
        return cls(spec.stage1_ms, spec.stage2_ms, spec.is_ms)

    @classmethod
    def for_model(cls, name: str) -> "StageCostModel":
        return cls.from_spec(MODEL_ZOO[name])

    def recommended_mode(self) -> OverlapMode:
        """Paper's rule: overlap Stage2 only when IS fits inside it;
        otherwise extend into the next batch's Stage1 (Fig. 12(b))."""
        if self.is_ms <= self.stage2_ms:
            return "stage2"
        return "stage2+next_stage1"

    def visible_is_ms(self, mode: OverlapMode) -> float:
        """IS milliseconds *not* hidden by the overlap window, per batch."""
        if mode == "none":
            return self.is_ms
        window = self.stage2_ms
        if mode == "stage2+next_stage1":
            window += self.stage1_ms
        return max(0.0, self.is_ms - window)


@dataclass
class ScheduledInterval:
    """One stage execution in the schedule (for Fig.-12-style Gantt data)."""

    batch: int
    stage: str  # "stage1" | "stage2" | "is"
    start_ms: float
    end_ms: float


class PipelineSimulator:
    """Event-driven schedule of N batches under an overlap mode.

    Stage1(b) -> Stage2(b) run back to back on the main stream; IS(b) runs
    on a side stream starting when Stage1(b) finishes. The *next* batch's
    Stage1 may start once Stage2(b) is done, but must additionally wait for
    IS(b) when the mode forbids overlapping it (mode "stage2": IS must end
    before Stage1(b+1) begins; mode "none": fully serial).
    """

    def __init__(self, costs: StageCostModel, mode: OverlapMode = "stage2") -> None:
        self.costs = costs
        self.mode = mode

    def schedule(self, n_batches: int) -> List[ScheduledInterval]:
        """Event-driven schedule of ``n_batches`` under the overlap mode."""
        if n_batches <= 0:
            raise ValueError("n_batches must be positive")
        c = self.costs
        out: List[ScheduledInterval] = []
        t = 0.0  # main-stream cursor
        prev_is_end = 0.0
        for b in range(n_batches):
            if self.mode == "none":
                s1_start = max(t, prev_is_end)
            elif self.mode == "stage2":
                # IS(b-1) may not overlap this Stage1.
                s1_start = max(t, prev_is_end)
            else:  # stage2+next_stage1: IS may run under this Stage1.
                s1_start = t
            s1_end = s1_start + c.stage1_ms
            out.append(ScheduledInterval(b, "stage1", s1_start, s1_end))

            if self.mode == "none":
                is_start = s1_end + c.stage2_ms  # serial: after stage2
            else:
                is_start = s1_end
            is_end = is_start + c.is_ms

            s2_start = s1_end
            s2_end = s2_start + c.stage2_ms
            out.append(ScheduledInterval(b, "stage2", s2_start, s2_end))
            out.append(ScheduledInterval(b, "is", is_start, is_end))

            t = s2_end
            if self.mode == "stage2+next_stage1":
                prev_is_end = 0.0  # never blocks
                t = max(t, is_end - c.stage1_ms)  # IS must end by next s1's end
            elif self.mode == "stage2":
                prev_is_end = is_end
            else:
                prev_is_end = is_end
        return out

    def makespan_ms(self, n_batches: int) -> float:
        """End time of the last interval in the schedule."""
        sched = self.schedule(n_batches)
        return max(iv.end_ms for iv in sched)

    def visible_overhead_ms(self, n_batches: int) -> float:
        """Extra time vs running Stage1+Stage2 alone (no IS)."""
        base = n_batches * (self.costs.stage1_ms + self.costs.stage2_ms)
        return self.makespan_ms(n_batches) - base

    def per_batch_visible_ms(self, n_batches: int = 64) -> float:
        """Amortized visible IS cost per batch."""
        return self.visible_overhead_ms(n_batches) / n_batches
