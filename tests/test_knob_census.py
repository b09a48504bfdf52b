"""Knob census: every run-configuration knob has a caller that sets it.

A setting that only one value is ever given is a constant, not a knob.
This walks the AST of every program caller — ``src/``, ``benchmarks/``
and ``perfbench/``, tests excluded — and requires each ``TrainerConfig``
field and each ``__init__`` parameter of the policies in ``SURFACES`` to
be set somewhere:

* as a keyword in a call to the class or a subclass that forwards it
  (Fig. 6b sets iCache-imp's ``skip_quantile`` through full iCache), or to
  ``dict(...)`` (ablation A3 passes the ``hom_*`` knobs through dicts), or
* for a policy, as the target of an attribute assignment in ``src/`` on
  an object other than ``self`` (``DataParallelTrainer`` assigns
  ``cache_factory``). A ``TrainerConfig`` is built once and only read,
  and other components own attributes of the same names.

A knob no caller sets either becomes a constant or goes on ``ALLOWLIST``
with its reason.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

from repro.baselines.icache import ICacheFullPolicy, ICacheImpPolicy
from repro.core.policy import SpiderCachePolicy
from repro.train.trainer import TrainerConfig

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "benchmarks", "perfbench")
SURFACES = (TrainerConfig, SpiderCachePolicy, ICacheImpPolicy, ICacheFullPolicy)

#: Paper-equation symbols kept settable although no caller sets them yet:
#: ROADMAP items 18 and 20 sweep them or give them live rows.
ALLOWLIST = {
    "SpiderCachePolicy.lam",  # Eq. 2-3's distance decay
    "SpiderCachePolicy.neighbormax",  # Eq. 4's Part-2 normaliser
    "SpiderCachePolicy.gamma",  # Eq. 8's accuracy-monitor threshold
}


def _knobs(cls):
    """``"Class.name"`` for every settable value on one surface."""
    if dataclasses.is_dataclass(cls):
        names = [f.name for f in dataclasses.fields(cls)]
    else:
        names = list(inspect.signature(cls.__init__).parameters)[1:]
    return [f"{cls.__name__}.{name}" for name in names]


def _callee(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _census():
    """``(keywords, attributes)``: the ``(callee, keyword)`` pairs of every
    call in the callers, and the attribute names ``src/`` assigns on an
    object other than ``self``."""
    keywords, attributes = set(), set()
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    callee = _callee(node.func)
                    keywords.update((callee, k.arg) for k in node.keywords if k.arg)
                elif top == "src" and isinstance(node, ast.Assign):
                    attributes.update(
                        t.attr for t in node.targets
                        if isinstance(t, ast.Attribute)
                        and not (isinstance(t.value, ast.Name) and t.value.id == "self")
                    )
    return keywords, attributes


def _family(cls) -> set:
    """``cls`` and every subclass of it, by name."""
    return {cls.__name__}.union(*(_family(sub) for sub in cls.__subclasses__()))


def _unset():
    keywords, attributes = _census()
    unset = []
    for cls in SURFACES:
        for knob in _knobs(cls):
            name = knob.split(".")[1]
            callees = _family(cls) | {"dict"}
            if any((callee, name) in keywords for callee in callees):
                continue
            if cls is not TrainerConfig and name in attributes:
                continue
            unset.append(knob)
    return unset


def test_every_knob_is_set_by_a_caller():
    unset = [knob for knob in _unset() if knob not in ALLOWLIST]
    assert unset == [], (
        f"no caller sets {unset}: make each a constant at its default, or "
        "give ALLOWLIST a reason"
    )


def test_allowlist_names_real_unset_knobs():
    assert ALLOWLIST <= {knob for cls in SURFACES for knob in _knobs(cls)}
    assert ALLOWLIST <= set(_unset()), "a caller sets an allowlisted knob now"
