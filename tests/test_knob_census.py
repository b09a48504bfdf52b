"""Knob census: every constructor value in ``repro`` has a caller that sets it.

A setting that only one value is ever given is a constant, not a knob.
This walks every class the ``repro`` package defines and, for each, the
parameters of its own ``__init__`` (a dataclass's init fields), and then
the AST of every program caller — ``src/``, ``benchmarks/`` and
``perfbench/``, tests excluded — and requires each parameter to be set
somewhere, by keyword or by position:

* in a call to the class or to a subclass of it (by name, or ``cls(...)``
  inside the class body);
* in a ``super().__init__(...)`` call of a subclass, with any argument
  other than the subclass's own parameter of the same name. A parameter
  a subclass only forwards that way is the base's knob, counted there
  once;
* as a keyword to ``dict(...)`` (ablation A3 passes the ``hom_*`` knobs
  through dicts).

A parameter no caller sets either becomes a module constant at its
default, or goes on ``ALLOWLIST`` with its reason. State records — classes
whose fields are results or running counts, built with their defaults and
then written — are not configuration and are excluded by name in
``STATE_RECORDS``.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from collections import defaultdict
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "benchmarks", "perfbench")

#: Knobs kept settable although no program caller sets them yet.
ALLOWLIST = {
    # Eq. 2-3's distance decay: a paper-equation symbol.
    "SpiderCachePolicy.lam",
    # Eq. 4's Part-2 normaliser; ROADMAP item 18 sweeps it.
    "SpiderCachePolicy.neighbormax",
    # ROADMAP item 18 step 2 sweeps the isolated-node Part-1 value.
    "GraphImportanceScorer.zero_same_part1",
    # Fresh-process resume after a real kill (ROADMAP item 6's acceptance).
    "ResilientTrainer.resume",
}

#: Classes whose fields are outcomes or running counts, not settings.
STATE_RECORDS = {
    "CacheStats": "a cache layer's hit / miss / eviction counters",
    "DegradedStats": "what degraded-mode serving absorbed",
    "MigrationState": "a live resize's progress",
    "EpochAggregate": "one epoch's totals re-aggregated from a trace",
    "EpochAccumulator": "an epoch's running sums inside the loop",
    "EpochMetrics": "one epoch's measured row",
    "TrainResult": "the run's list of epoch rows",
    "RecoveryStats": "what fault recovery cost a run",
    "ScenarioReport": "one fault scenario's measured outcome",
    "CampaignResult": "the reports of one fault campaign",
}


def _classes():
    """Every class a ``repro`` module defines, by name."""
    out = defaultdict(list)
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == info.name:
                out[name].append(obj)
    return out


def _params(cls) -> list:
    """The values one constructor call can set, in positional order."""
    if dataclasses.is_dataclass(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]
    if "__init__" not in vars(cls):
        return []
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return [
        p.name for p in params
        if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    ]


def _callee(func: ast.expr) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _is_super_init(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute) and func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and _callee(func.value.func) == "super"
    )


def _census(classes):
    """``(set, forwarded)``: the ``(class name, parameter)`` pairs some
    caller sets, and those a subclass only forwards to its base."""
    set_, forwarded = set(), set()

    def record(name, call, owner=None):
        """Credit ``call``'s arguments to class ``name``. In ``owner``'s
        ``super().__init__`` an argument that is just ``owner``'s own
        parameter of the same name is a forward, not a setting."""
        own = {p for cls in classes.get(owner, ()) for p in _params(cls)}

        def credit(arg, param):
            if isinstance(arg, ast.Name) and arg.id == param and param in own:
                forwarded.add((owner, param))
            else:
                set_.add((name, param))

        for kw in call.keywords:
            if kw.arg:
                credit(kw.value, kw.arg)
        for cls in classes.get(name, ()):
            for arg, param in zip(call.args, _params(cls)):
                if isinstance(arg, ast.Starred):
                    break
                credit(arg, param)

    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            seen = set()
            for cdef in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
                for call in (n for n in ast.walk(cdef) if isinstance(n, ast.Call)):
                    if _is_super_init(call):
                        seen.add(id(call))
                        for base in map(_callee, cdef.bases):
                            record(base, call, cdef.name)
                    elif _callee(call.func) == "cls":
                        seen.add(id(call))
                        record(cdef.name, call)
            for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
                if id(call) not in seen:
                    record(_callee(call.func), call)
    return set_, forwarded


def _family(cls) -> set:
    """``cls`` and every subclass of it, by name."""
    return {cls.__name__}.union(*(_family(sub) for sub in cls.__subclasses__()))


def _knobs(classes, forwarded):
    """``{"Class.param": class}`` for every settable constructor value."""
    return {
        f"{name}.{param}": cls
        for name, group in classes.items() if name not in STATE_RECORDS
        for cls in group
        for param in _params(cls) if (name, param) not in forwarded
    }


def census():
    """``(knobs, unset)``: every settable constructor value, and the
    sorted names of those no program caller sets."""
    classes = _classes()
    set_, forwarded = _census(classes)
    knobs = _knobs(classes, forwarded)
    unset = sorted(
        knob for knob, cls in knobs.items()
        if not any(
            (member, knob.split(".")[1]) in set_
            for member in _family(cls) | {"dict"}
        )
    )
    return knobs, unset


KNOBS, UNSET = census()


def test_the_walk_found_the_tree():
    # Guard against the walker silently seeing an empty package.
    assert len(KNOBS) > 200
    for knob in ("TrainerConfig.epochs", "ShardedCacheClient.n_shards",
                 "HNSWIndex.M", "SpiderCachePolicy.r_start"):
        assert knob in KNOBS


def test_every_knob_is_set_by_a_caller():
    unset = [knob for knob in UNSET if knob not in ALLOWLIST]
    assert unset == [], (
        f"no caller sets {unset}: make each a constant at its default, or "
        "give ALLOWLIST a reason"
    )


def test_allowlist_names_real_unset_knobs():
    assert ALLOWLIST <= set(KNOBS)
    assert ALLOWLIST <= set(UNSET), "a caller sets an allowlisted knob now"


def test_state_records_name_real_classes():
    classes = _classes()
    assert set(STATE_RECORDS) <= set(classes)
