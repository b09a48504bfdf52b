"""Reflection tests enforcing the zero-overhead-when-disabled contract.

Two halves:

* a static AST sweep proving every ``Observer.on_*`` hook call in
  ``src/repro`` sits behind an ``.active`` guard — either an enclosing
  ``if <obs>.active:`` block (any ancestor ``if``/conditional whose test
  reads ``.active``) or the early-return form
  ``if not <obs>.active: return`` as the enclosing function's first
  statement;
* a dynamic check that a full training run against an *inactive*
  observer emits zero trace events and allocates zero ``Span`` objects.
"""

import ast
from pathlib import Path

import repro
from repro.core.policy import SpiderCachePolicy
from repro.data.synthetic import make_clustered_dataset, train_test_split
from repro.nn.models import build_model
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.observer import Observer as _ObserverClass
from repro.obs.trace import InMemoryRecorder
from repro.train.trainer import Trainer, TrainerConfig

SRC_ROOT = Path(repro.__file__).resolve().parent

#: The hook vocabulary, harvested from the Observer class itself so new
#: hooks are covered the day they are added.
HOOK_NAMES = frozenset(
    name for name in vars(_ObserverClass) if name.startswith("on_")
)


def _test_reads_active(test: ast.expr) -> bool:
    """Does this condition expression read an ``.active`` attribute?"""
    return any(
        isinstance(node, ast.Attribute) and node.attr == "active"
        for node in ast.walk(test)
    )


def _is_active_early_return(stmt: ast.stmt) -> bool:
    """Matches ``if not <recv>.active: return`` (helper-method form)."""
    return (
        isinstance(stmt, ast.If)
        and isinstance(stmt.test, ast.UnaryOp)
        and isinstance(stmt.test.op, ast.Not)
        and _test_reads_active(stmt.test.operand)
        and len(stmt.body) == 1
        and isinstance(stmt.body[0], ast.Return)
    )


def _unguarded_hook_calls(tree: ast.AST):
    """Yield (lineno, hook_name) for every unguarded Observer hook call."""
    # Parent links let us walk outward from a call to its guards.
    parents = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in HOOK_NAMES
        ):
            continue
        guarded = False
        cursor = node
        while cursor is not None:
            if isinstance(cursor, (ast.If, ast.IfExp)) and _test_reads_active(
                cursor.test
            ):
                guarded = True
                break
            if isinstance(cursor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                body = cursor.body
                # Skip a leading docstring when looking for the guard.
                if (
                    body
                    and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                ):
                    body = body[1:]
                if body and _is_active_early_return(body[0]):
                    guarded = True
                break  # stop at the enclosing function either way
            cursor = parents.get(cursor)
        if not guarded:
            yield node.lineno, node.func.attr


def test_every_hook_call_site_is_active_guarded():
    violations = []
    for path in sorted(SRC_ROOT.rglob("*.py")):
        if path == SRC_ROOT / "obs" / "observer.py":
            continue  # the definitions themselves
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, hook in _unguarded_hook_calls(tree):
            rel = path.relative_to(SRC_ROOT.parent)
            violations.append(f"{rel}:{lineno} calls {hook} unguarded")
    assert not violations, (
        "Observer hook calls missing an `.active` guard:\n  "
        + "\n  ".join(violations)
    )


def test_hook_vocabulary_is_nonempty_and_looks_right():
    assert {"on_fetch", "on_batch", "on_shards", "on_audit"} <= HOOK_NAMES


def test_inactive_observer_run_emits_nothing_and_allocates_no_spans(
    monkeypatch,
):
    allocations = []
    import repro.obs.spans as spans_mod

    orig_init = spans_mod.Span.__init__

    def counting_init(self, *args, **kwargs):
        allocations.append(1)
        orig_init(self, *args, **kwargs)

    monkeypatch.setattr(spans_mod.Span, "__init__", counting_init)

    rec = InMemoryRecorder()
    # Inactive but with a live recorder AND a span tracker attached: only
    # the call-site guards keep this silent.
    obs = Observer(recorder=rec, metrics=MetricsRegistry(), span_seed=7)
    obs.active = False
    ds = make_clustered_dataset(200, n_classes=4, dim=16, rng=0)
    train, test = train_test_split(ds, test_fraction=0.25, rng=1)
    model = build_model("resnet18", train.dim, train.num_classes, rng=2)
    result = Trainer(
        model, train, test,
        SpiderCachePolicy(cache_fraction=0.3, rng=3),
        TrainerConfig(epochs=2, batch_size=64),
        observer=obs,
    ).run()
    assert len(result.epochs) == 2
    assert rec.events == []
    assert allocations == []
    snap = obs.metrics.snapshot()
    assert snap == {"counters": {}}
    assert obs.snapshot() == snap  # and no component registered its counts
