"""Import smoke: every ``repro.*`` module must import on its own.

The whole suite once failed *collection* because a deleted subpackage
was still imported at module scope by its consumers — an error no unit
test caught, because no unit test imports everything. This walk does:
any module whose import raises (missing sibling, stale import,
syntax error) fails here with the module named, instead of surfacing as
dozens of opaque collection errors.

Packages are namespaces: a package ``__init__`` imports nothing, so
every name has one import path (the module that defines it) and
importing a module loads only what it imports, plus its empty parent
packages. A fresh interpreter checks the second half.

The same tree is then held to the dead-code rule: a module no other
``src/`` module imports is deleted, or kept with its reason written down,
and to the layer order: a module's top level imports nothing from a
layer above its own.
"""

import ast
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def _all_modules():
    mods = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        mods.append(info.name)
    return sorted(mods)


MODULES = _all_modules()


def test_the_walk_found_the_tree():
    # Guard against the walker silently seeing an empty package.
    assert len(MODULES) > 30
    assert "repro.core.semantic_cache" in MODULES
    assert "repro.dist.client" in MODULES
    assert "repro.train.data_parallel" in MODULES
    assert "repro.obs.report" in MODULES
    assert "repro.dist.transport" in MODULES
    assert "repro.data.loader" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_cleanly(name):
    importlib.import_module(name)


def test_train_package_imports_without_dist():
    """The trainers must not require repro.dist at import time — sharded
    mode lazy-imports it so a single-worker install works without the
    shard tier (and a missing tier fails with an actionable error at
    *use* time, not import time)."""
    import repro.train.data_parallel as dp

    src = open(dp.__file__).read()
    head = src.split("def ", 1)[0]  # module scope only
    assert "from repro.dist" not in head
    assert "import repro.dist" not in head


# -- packages are namespaces ---------------------------------------------
# The one exception: the benchmark harness imports these three names from
# ``repro.obs``, and all three sit below the report and critpath layers.
PACKAGE_IMPORTS = {
    "repro.obs": {
        ("repro.obs.metrics", "MetricsRegistry"),
        ("repro.obs.observer", "Observer"),
        ("repro.obs.trace", "JsonlRecorder"),
    },
}


def test_package_inits_import_nothing():
    found = {}
    for module, (path, is_init) in _module_sources().items():
        if is_init:
            imports = set(_imports(ast.parse(path.read_text())))
            if imports:
                found[module] = imports
    assert found == PACKAGE_IMPORTS, (
        "a package __init__ keeps its docstring and imports nothing; "
        "import each name from the module that defines it"
    )


ROOT = Path(repro.__file__).resolve().parents[2]
IMPORTING_TREES = ("src", "tests", "benchmarks", "examples")


def _top_level_names(tree) -> set:
    """The names a module's top level defines: defs, classes and
    assignment targets."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(
                n.id for target in targets for n in ast.walk(target)
                if isinstance(n, ast.Name)
            )
    return names


def test_every_name_is_imported_from_the_module_that_defines_it():
    """``from repro.m import n`` names the module whose top level defines
    ``n``, or imports the submodule ``repro.m.n`` — never a module that
    merely imported ``n`` itself. ``repro.obs``'s three names are the one
    exception (see :data:`PACKAGE_IMPORTS`)."""
    sources = _module_sources()
    defined = {}
    strays = []
    for top in IMPORTING_TREES:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.ImportFrom) and node.level == 0
                        and node.module.split(".")[0] == "repro"):
                    continue
                module = node.module
                if module not in defined:
                    defined[module] = _top_level_names(
                        ast.parse(sources[module][0].read_text())
                    ) | {n for _, n in PACKAGE_IMPORTS.get(module, ())}
                for alias in node.names:
                    name = alias.name
                    if name not in defined[module] and (
                        f"{module}.{name}" not in sources
                    ):
                        rel = path.relative_to(ROOT)
                        strays.append(f"{rel}:{node.lineno} {module}.{name}")
    assert strays == [], (
        "import each name from the module that defines it:\n  "
        + "\n  ".join(strays)
    )


def _loaded_by(module: str) -> set:
    """The ``repro`` modules a fresh interpreter holds after
    ``import module``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    probe = (
        f"import json, sys; import {module}; print(json.dumps(sorted("
        "m for m in sys.modules if m.split('.')[0] == 'repro')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True,
        capture_output=True, text=True,
    ).stdout
    return set(json.loads(out))


#: What importing each module must not load: it imports none of these.
LOADS_NOTHING_ELSE = {
    "repro.utils.hashing": lambda m: m not in (
        "repro", "repro.utils", "repro.utils.hashing",
    ),
    "repro.core.semantic_cache": lambda m: (
        f"{m}.".startswith(("repro.train.", "repro.ann."))
        or m in ("repro.obs.report", "repro.obs.critpath")
    ),
    "repro.train.trainer": lambda m: m in (
        "repro.train.data_parallel", "repro.obs.report", "repro.ann.pq",
        "repro.cache.trace",
    ),
}


@pytest.mark.parametrize("module", sorted(LOADS_NOTHING_ELSE))
def test_importing_a_module_loads_only_what_it_imports(module):
    strays = sorted(filter(LOADS_NOTHING_ELSE[module], _loaded_by(module)))
    assert strays == [], f"importing {module} loads {strays}"


# -- the dead-code rule ---------------------------------------------------
# A module stays only if some other src/ module imports it or a paper
# figure / contract row listed here needs it. One line per survivor, with
# the reason.
KEPT_WITHOUT_SRC_IMPORTER = {
    "repro.ann.index_stats":
        "Table 2 (benchmarks/test_table2_index_storage.py)",
    "repro.ann.pq":
        "Table 2's PQ codec (benchmarks/test_table2_index_storage.py)",
    "repro.data.images":
        "E-CNN (benchmarks/test_cnn_image_path.py, tests/test_integration.py)",
}


def _module_sources():
    """``{dotted name: (path, is_package_init)}`` for every src/ file."""
    specs = {name: importlib.util.find_spec(name) for name in MODULES}
    return {
        name: (Path(spec.origin), spec.submodule_search_locations is not None)
        for name, spec in specs.items()
    }


def _imports(tree):
    """``(target module, name or None)`` for every import in ``tree``,
    function-scope ones included. ``src/`` uses absolute imports only."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import: resolve it here first"
            for alias in node.names:
                yield node.module, alias.name


def _importers():
    """``{module: set of src/ modules that import it}`` — directly or as
    ``from pkg import module``."""
    sources = _module_sources()
    importers = {m: set() for m in sources}
    for module, (path, _) in sources.items():
        for target, name in _imports(ast.parse(path.read_text())):
            for hit in {target, f"{target}.{name}"} & importers.keys():
                importers[hit].add(module)
    return sources, importers


def test_every_module_has_an_importer_or_a_written_reason():
    sources, importers = _importers()
    orphans = []
    for module, (_, is_init) in sources.items():
        if is_init or module.endswith(".__main__"):
            continue
        if not importers[module] - {module}:
            orphans.append(module)
    assert sorted(orphans) == sorted(KEPT_WITHOUT_SRC_IMPORTER), (
        "modules nothing in src/ imports must be deleted or given a reason "
        "in KEPT_WITHOUT_SRC_IMPORTER; entries that gained an importer "
        "must leave it"
    )


# -- the single-threaded rule ---------------------------------------------
# One thread drives a run, so nothing in src/ takes a lock or starts a
# thread. Shard servers are separate single-threaded processes
# (``multiprocessing`` in repro.dist.transport), which this rule allows.
THREAD_MODULES = {"threading", "_thread", "concurrent.futures"}


def test_no_module_imports_threads():
    offenders = []
    for module, (path, _) in _module_sources().items():
        for target, name in _imports(ast.parse(path.read_text())):
            dotted = target if name is None else f"{target}.{name}"
            if any(dotted == m or dotted.startswith(m + ".")
                   for m in THREAD_MODULES):
                offenders.append(f"{module} imports {dotted}")
    assert offenders == [], (
        "src/ is single-threaded by contract: " + "; ".join(offenders)
    )


# -- the layer order --------------------------------------------------------
# Lowest first. A module belongs to the group of its longest matching
# entry (the entry itself or a module under it), and its top level may
# import only from its own group or a lower one; a function-level import
# (the trainer's lazy ``repro.dist``) is exempt.
LAYER_ORDER = (
    # helpers that import nothing of repro
    ("repro.utils", "repro.analysis"),
    # recording: metrics, spans, the trace, the observer
    ("repro.obs",),
    # substrate: payload stores, clocks, caches, indexes, models, data
    ("repro.storage", "repro.cache", "repro.ann", "repro.nn", "repro.data"),
    # the Fig. 9 cache and what it decides with
    ("repro.core",),
    # what every training policy shares (it serves through the cache)
    ("repro.train.policy_base",),
    # the policies
    ("repro.core.policy", "repro.baselines"),
    # the epoch loop
    ("repro.train",),
    # reading a finished run
    ("repro.obs.report", "repro.obs.critpath"),
    # fault tolerance and the shard tier
    ("repro.resilience", "repro.dist"),
    # entry points
    ("repro.cli", "repro.__main__"),
)


def _layer(module: str):
    """Index of ``module``'s group in :data:`LAYER_ORDER`, or None."""
    matches = [
        (len(entry), i) for i, group in enumerate(LAYER_ORDER)
        for entry in group
        if module == entry or module.startswith(entry + ".")
    ]
    return max(matches)[1] if matches else None


def _module_top_imports(tree):
    """:func:`_imports` of what runs when the module is imported: every
    statement outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from _imports(node)
        else:
            stack.extend(ast.iter_child_nodes(node))


def test_no_module_imports_from_a_layer_above_its_own():
    sources = _module_sources()
    unplaced = sorted(m for m in sources if m != "repro" and _layer(m) is None)
    assert unplaced == [], f"give these a group in LAYER_ORDER: {unplaced}"
    upward = []
    for module, (path, _) in sources.items():
        for target, name in _module_top_imports(ast.parse(path.read_text())):
            if name is not None and f"{target}.{name}" in sources:
                target = f"{target}.{name}"
            if target in sources and target != "repro" and (
                _layer(target) > _layer(module)
            ):
                upward.append(f"{module} imports {target}")
    assert upward == [], (
        "a module-top import points up LAYER_ORDER; move the code it "
        "needs down to a layer the importer may use:\n  "
        + "\n  ".join(sorted(upward))
    )
