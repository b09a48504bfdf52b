"""Span tracing from outside the program, for the traced pass only.

The benchmark wraps the public calls of each layer *on the instances it
built* (instance attributes shadowing the class methods), so ``src/`` is
untouched and the untraced pass runs the program exactly as shipped.
Every wrapped call becomes a span — name, start, end, parent — kept in
flat in-memory lists and only analysed (and written out) after ``run()``
returns. A span's self time is its duration minus the time its child
spans cover; the root span is ``run()`` itself, so its self time is the
residual no layer row claims.

Span names are ``<layer>.<call>``; the layer prefix is one of the repo's
modules (``data core storage nn ann dist obs train``).
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

ROOT_SPAN = "train.run"


class Tracer:
    """Collects spans from wrapped calls; single-threaded by design (the
    training loop is the only client)."""

    def __init__(self) -> None:
        self.names: List[str] = []  # interned span names
        self._name_ids: Dict[str, int] = {}
        # One entry per span, parallel lists (cheap appends on the hot path).
        self.name_id: List[int] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self._stack: List[int] = [-1]
        #: Work counted at the same boundary as the span (vectors, rows, bytes).
        self.counts: Counter = Counter()
        #: Calls that raised, per span name.
        self.errors: Counter = Counter()
        #: ``Class.attr`` of every wrapper installed (empty = untraced).
        self.installed: List[str] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def timed(
        self,
        fn: Callable,
        name: str,
        count: Optional[Callable[[tuple, dict], int]] = None,
    ) -> Callable:
        """``fn`` with a span around every call.

        ``count(args, kwargs)``, if given, adds to ``counts[name]`` —
        work measured where it happens, for the per-row ratios.
        """
        nid = self._intern(name)
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        stack, counts, errors = self._stack, self.counts, self.errors

        def wrapped(*args: Any, **kwargs: Any) -> Any:
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            if count is not None:
                counts[name] += count(args, kwargs)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return wrapped

    def wrap(
        self,
        obj: Any,
        attr: str,
        name: str,
        count: Optional[Callable[[tuple, dict], int]] = None,
    ) -> None:
        """Shadow ``obj.attr`` with a timed wrapper (instance attribute)."""
        setattr(obj, attr, self.timed(getattr(obj, attr), name, count))
        self.installed.append(f"{type(obj).__name__}.{attr}")

    # ------------------------------------------------------------------
    def analyse(self) -> "SpanTable":
        """Durations and self times per span (call after the root ended)."""
        import numpy as np

        name_id = np.asarray(self.name_id, dtype=np.int64)
        start = np.asarray(self.start, dtype=np.float64)
        dur = np.asarray(self.end, dtype=np.float64) - start
        parent = np.asarray(self.parent, dtype=np.int64)

        has_parent = parent >= 0
        child_s = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return SpanTable(self.names, name_id, start, dur, dur - child_s)

    def save(self, path: Any) -> None:
        """Write the raw spans out (the benchmark has ended by now)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            name_id=np.asarray(self.name_id, dtype=np.int32),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
            parent=np.asarray(self.parent, dtype=np.int32),
        )


class SpanTable:
    """Per-name views over analysed spans."""

    def __init__(self, names, name_id, start, dur, self_s) -> None:
        self.names = names
        self.name_id = name_id
        self.start = start
        self.dur = dur
        self.self_s = self_s

    def _mask(self, names):
        import numpy as np

        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def calls(self, *names: str) -> int:
        """How many spans carry one of ``names``."""
        return int(self._mask(names).sum())

    def total_s(self, *names: str) -> float:
        """Summed duration (children included)."""
        return float(self.dur[self._mask(names)].sum())

    def self_time_s(self, *names: str) -> float:
        """Summed self time (children excluded)."""
        return float(self.self_s[self._mask(names)].sum())

    def durations(self, *names: str):
        """Per-call durations in seconds, in call order."""
        return self.dur[self._mask(names)]

    def starts(self, *names: str):
        """Per-call start times (``perf_counter`` seconds), in call order."""
        return self.start[self._mask(names)]

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer (the span-name prefix), root included."""
        import numpy as np

        per_name = np.bincount(
            self.name_id, weights=self.self_s, minlength=len(self.names)
        )
        out: Dict[str, float] = {}
        for name, self_s in zip(self.names, per_name):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + float(self_s)
        return out
