"""Knob census: every public callable in ``repro`` has a caller, and every
value it takes has a caller that sets it.

A setting that only one value is ever given is a constant, not a knob,
and a function nothing calls is code nothing needs. The program callers
are ``src/``, ``benchmarks/``, ``perfbench/`` and ``examples/``; tests
(any ``tests`` directory) are excluded. The census has two halves.

**Constructors.** Every class the ``repro`` package defines, and the
parameters of its own ``__init__`` (a dataclass's init fields). A
parameter is set somewhere by keyword or by position:

* in a call to the class or to a subclass of it (by name, or ``cls(...)``
  inside the class body);
* in a ``super().__init__(...)`` call of a subclass, with any argument
  other than the subclass's own parameter of the same name. A parameter
  a subclass only forwards that way is the base's knob, counted there
  once;
* as a keyword to ``dict(...)``, for the classes and functions the same
  module calls with a ``**`` argument (ablation A3 passes the ``hom_*``
  knobs through dicts).

**Callables.** Every function, method and property ``src/repro`` defines
whose name has no leading underscore. Each must be referenced by a
caller: a name or attribute read (a call, or a bound method passed as a
value), or a string literal equal to its name (perfbench wraps methods by
name; the shard client calls server methods by string). Imports,
``__all__`` entries and uses inside the callable's own body do not count.
Each defaulted parameter of a function or method must be set by a call
to that name — by keyword, by a position that covers it, or through
``*args`` / ``**kwargs``. An override that passes its own same-named
parameter to ``super().name(...)`` only forwards it: the parameter is the
base's knob. Matching is by name, so a homonym is credited too: that can
keep unused code, never delete used code.

**Imports.** Every name a module in ``src/``, ``tests/``,
``benchmarks/``, ``examples/`` or ``perfbench/`` imports is read in that
module, or listed in its ``__all__``. An import kept for its side effect
says so with ``# noqa: F401`` on the statement.

A constructor value no caller sets becomes a module constant at its
default, or goes on ``ALLOWLIST`` with its reason. State records — classes
whose fields are results or running counts, built with their defaults and
then written — are not configuration and are excluded by name in
``STATE_RECORDS``. A callable no caller references is deleted, unless it
is safety code tests compare the program against or drive it with
(``CALLABLE_ALLOWLIST``, with reasons); a parameter no caller sets
becomes a module constant at its default.
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
CALLERS = ("src", "benchmarks", "perfbench", "examples")
#: Where the unused-import check looks: the program callers and the tests.
IMPORTERS = (*CALLERS, "tests")

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

#: Callables kept although no program references them: invariant checks
#: and reference answers tests compare the program against, and the chaos
#: tools the wall-clock suite drives it with.
CALLABLE_ALLOWLIST = {
    "HNSWIndex.validate_invariants": "the graph invariants every HNSW "
    "mutation test checks",
    "HNSWIndex.check_symmetric_reachability": "the reachability oracle "
    "of the HNSW detach tests",
    "ImportanceCache.check_invariants": "the heap / payload invariants "
    "the cache tests check",
    "ShardedCacheClient.verify_placement": "the placement oracle of the "
    "sharded-cache differential, parity and chaos tests",
    "RealRpcTransport.kill_shard": "SIGKILLs a real shard worker in the "
    "wall-clock chaos suite",
    "RealRpcTransport.restart_shard": "restarts a killed worker in the "
    "wall-clock chaos suite",
}

#: Classes whose fields are outcomes or running counts, not settings.
STATE_RECORDS = {
    "CacheStats": "a cache layer's hit / miss / eviction counters",
    "EpochAggregate": "one epoch's totals re-aggregated from a trace",
    "EpochAccumulator": "an epoch's running sums inside the loop",
    "EpochMetrics": "one epoch's measured row",
    "TrainResult": "the run's list of epoch rows",
    "RecoveryStats": "what fault recovery cost a run",
    "ScenarioReport": "one fault scenario's measured outcome",
    "CampaignResult": "the reports of one fault campaign",
}


def _caller_trees() -> list:
    """``(path, AST)`` of every program caller, tests excluded."""
    return [
        (path, ast.parse(path.read_text(), str(path)))
        for top in CALLERS
        for path in sorted((ROOT / top).rglob("*.py"))
        if "tests" not in path.relative_to(ROOT).parts
    ]


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


def _is_super(call: ast.Call, method: str) -> bool:
    """``call`` is ``super().method(...)``."""
    func = call.func
    return (
        isinstance(func, ast.Attribute) and func.attr == method
        and isinstance(func.value, ast.Call)
        and _callee(func.value.func) == "super"
    )


def _calls(tree):
    return (n for n in ast.walk(tree) if isinstance(n, ast.Call))


def _census(classes, trees):
    """``(set, forwarded)``: the ``(class name, parameter)`` pairs some
    caller in ``trees`` sets, and those a subclass only forwards to its
    base."""
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

    for _, tree in trees:
        seen = set()
        for cdef in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for call in _calls(cdef):
                if _is_super(call, "__init__"):
                    seen.add(id(call))
                    for base in map(_callee, cdef.bases):
                        record(base, call, cdef.name)
                elif _callee(call.func) == "cls":
                    seen.add(id(call))
                    record(cdef.name, call)
        for call in _calls(tree):
            if id(call) not in seen:
                record(_callee(call.func), call)
        # A dict(...) keyword reaches only what this module calls with **.
        spread = {
            _callee(call.func) for call in _calls(tree)
            if any(kw.arg is None for kw in call.keywords)
        }
        set_.update(
            (name, kw.arg)
            for call in _calls(tree) if _callee(call.func) == "dict"
            for kw in call.keywords if kw.arg
            for name in spread
        )
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


def census(trees):
    """``(knobs, unset)``: every settable constructor value, and the
    sorted names of those no program caller sets."""
    classes = _classes()
    set_, forwarded = _census(classes, trees)
    knobs = _knobs(classes, forwarded)
    unset = sorted(
        knob for knob, cls in knobs.items()
        if not any(
            (member, knob.split(".")[1]) in set_ for member in _family(cls)
        )
    )
    return knobs, unset


@dataclasses.dataclass
class Definition:
    """One public function, method or property ``src/repro`` defines."""

    node: ast.FunctionDef
    # Positional parameters a call's arguments bind, in order (``self`` /
    # ``cls`` dropped), and the parameters with a default.
    positional: list
    defaulted: list
    # ``(path, first line, last line)`` of each definition under this
    # name (a property's getter and setter).
    spans: list = dataclasses.field(default_factory=list)

    def encloses(self, path: Path, line: int) -> bool:
        return any(p == path and a <= line <= b for p, a, b in self.spans)


def _callables(trees) -> dict:
    """``{"Class.method" or "function": Definition}`` for every public
    callable defined in ``src/repro``."""
    out = {}

    def visit(body, path, prefix, in_class):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, path, f"{prefix}{node.name}.", True)
            elif (
                isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_")
            ):
                qual = prefix + node.name
                if qual not in out:
                    decorators = {ast.unparse(d) for d in node.decorator_list}
                    args = node.args
                    positional = [a.arg for a in args.posonlyargs + args.args]
                    if in_class and "staticmethod" not in decorators:
                        positional = positional[1:]
                    defaulted = positional[len(positional) - len(args.defaults):]
                    if "property" in decorators:
                        defaulted = []
                    defaulted = defaulted + [
                        a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                        if d is not None
                    ]
                    out[qual] = Definition(node, positional, defaulted)
                start = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out[qual].spans.append((path, start, node.end_lineno))

    for path, tree in trees:
        if path.is_relative_to(ROOT / "src" / "repro"):
            visit(tree.body, path, "", False)
    return out


def _all_nodes(tree):
    """Every AST node inside the module's ``__all__ = ...`` values."""
    return (
        node
        for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
        if any(getattr(t, "id", None) == "__all__" for t in assign.targets)
        for node in ast.walk(assign.value)
    )


def _references(trees) -> dict:
    """``{name: [(path, line)]}``: every name or attribute read and every
    string literal, outside imports and ``__all__``."""
    refs = defaultdict(list)
    for path, tree in trees:
        exported = {id(node) for node in _all_nodes(tree)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) in exported:
                    continue
                name = node.value
            else:
                continue
            refs[name].append((path, node.lineno))
    return refs


def _enclosing_defs(tree) -> dict:
    """``{id(node): innermost enclosing FunctionDef}`` for every node."""
    out = {}

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            out[id(child)] = fn
            visit(child, child if isinstance(child, ast.FunctionDef) else fn)

    visit(tree, None)
    return out


def _parameter_census(callables, trees):
    """``(set, forwarded)``: the ``(callable, parameter)`` pairs some call
    sets, and those an override only forwards to ``super()``."""
    by_name = defaultdict(list)
    for qual, fn in callables.items():
        by_name[fn.node.name].append((qual, fn))
    set_, forwarded = set(), set()
    for path, tree in trees:
        enclosing = _enclosing_defs(tree)
        for call in _calls(tree):
            name = _callee(call.func)
            outer = enclosing[id(call)]
            own = set() if outer is None else {
                a.arg for a in outer.args.args + outer.args.kwonlyargs
            }
            for qual, fn in by_name.get(name, ()):
                if fn.encloses(path, call.lineno):
                    continue

                def credit(arg, param):
                    if (
                        _is_super(call, name) and isinstance(arg, ast.Name)
                        and arg.id == param and param in own
                    ):
                        forwarded.add((outer, param))
                    else:
                        set_.add((qual, param))

                for kw in call.keywords:
                    for param in [kw.arg] if kw.arg else fn.defaulted:
                        credit(kw.value, param)
                for i, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred):
                        for param in fn.positional[i:]:
                            set_.add((qual, param))
                        break
                    if i < len(fn.positional):
                        credit(arg, fn.positional[i])
    return set_, forwarded


def callable_census(trees):
    """``(callables, unreferenced, knobs, unset)``: every public callable,
    the sorted names of those no program caller references, every
    settable defaulted parameter (``"Class.method.param"``), and the
    sorted names of those no call sets."""
    callables = _callables(trees)
    refs = _references(trees)
    unreferenced = sorted(
        qual for qual, fn in callables.items()
        if not any(
            not fn.encloses(path, line) for path, line in refs[fn.node.name]
        )
    )
    set_, forwarded = _parameter_census(callables, trees)
    knobs = {
        f"{qual}.{param}": (qual, param)
        for qual, fn in callables.items()
        for param in fn.defaulted if (fn.node, param) not in forwarded
    }
    unset = sorted(knob for knob, pair in knobs.items() if pair not in set_)
    return callables, unreferenced, knobs, unset


TREES = _caller_trees()
KNOBS, UNSET = census(TREES)
CALLABLES, UNREFERENCED, PARAMETERS, UNSET_PARAMETERS = callable_census(TREES)


def test_the_walk_found_the_tree():
    # Guard against the walker silently seeing an empty package.
    assert len(KNOBS) > 200
    for knob in ("TrainerConfig.epochs", "ShardedCacheClient.n_shards",
                 "HNSWIndex.M", "SpiderCachePolicy.r_start"):
        assert knob in KNOBS
    assert len(CALLABLES) > 300
    for name in ("SemanticCache.fetch", "HNSWIndex.search",
                 "HNSWIndex.neighbors_within_batch", "aggregate_trace",
                 "GlobalScoreTable.sampling_weights"):
        assert name in CALLABLES
    assert "HNSWIndex.search.ef" in PARAMETERS


def test_every_knob_is_set_by_a_caller():
    unset = [knob for knob in UNSET if knob not in ALLOWLIST]
    assert unset == [], (
        f"no caller sets {unset}: make each a constant at its default, or "
        "give ALLOWLIST a reason"
    )


def test_every_callable_has_a_caller():
    unreferenced = [
        name for name in UNREFERENCED if name not in CALLABLE_ALLOWLIST
    ]
    assert unreferenced == [], (
        f"no program caller references {unreferenced}: delete each, or "
        "give CALLABLE_ALLOWLIST a reason if tests check the program "
        "against it"
    )


def test_every_callable_parameter_is_set_by_a_caller():
    assert UNSET_PARAMETERS == [], (
        f"no caller sets {UNSET_PARAMETERS}: make each a module constant "
        "at its default"
    )


def test_allowlist_names_real_unset_knobs():
    assert ALLOWLIST <= set(KNOBS)
    assert ALLOWLIST <= set(UNSET), "a caller sets an allowlisted knob now"


def test_callable_allowlist_names_real_unreferenced_callables():
    assert set(CALLABLE_ALLOWLIST) <= set(CALLABLES)
    assert set(CALLABLE_ALLOWLIST) <= set(UNREFERENCED), (
        "a caller references an allowlisted callable now"
    )


def test_state_records_name_real_classes():
    classes = _classes()
    assert set(STATE_RECORDS) <= set(classes)


def unused_imports(source: str) -> list:
    """``[(line, name)]``: the names ``source`` imports and never reads
    nor lists in ``__all__`` (``__future__`` and ``# noqa: F401``
    statements excepted)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or any(
            "noqa: F401" in line
            for line in lines[node.lineno - 1:node.end_lineno]
        ):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read.update(
        node.value for node in _all_nodes(tree)
        if isinstance(node, ast.Constant)
    )
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_every_import_is_used():
    unused = {
        str(path.relative_to(ROOT)): found
        for top in IMPORTERS
        for path in sorted((ROOT / top).rglob("*.py"))
        if (found := unused_imports(path.read_text()))
    }
    assert unused == {}, (
        f"unused imports {unused}: delete each, or mark a side-effect "
        "import with # noqa: F401"
    )


def test_unused_import_check_sees_what_it_should():
    assert unused_imports("import os\nimport numpy as np\nnp.zeros(1)\n") \
        == [(1, "os")]
    assert unused_imports("import os  # noqa: F401\n") == []
    assert unused_imports("from a import (\n    b,  # noqa: F401\n)\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("import os.path\nos.sep\n") == []


def _unset_in(source: str) -> list:
    """The unset constructor knobs with ``source`` as the only caller."""
    return census([(ROOT / "caller.py", ast.parse(source))])[1]


def test_dict_keyword_credits_only_what_the_module_spreads():
    # A dict(...) keyword is a setting only where the module passes a
    # dict on with ** — and only for the callees it passes one to.
    assert "SpiderCachePolicy.lam" in _unset_in(
        "kw = dict(lam=1.0)\nSpiderCachePolicy(rng=0)\nTrainer(**kw)\n"
    )
    assert "SpiderCachePolicy.lam" not in _unset_in(
        "kw = dict(lam=1.0)\nSpiderCachePolicy(rng=0, **kw)\n"
    )
