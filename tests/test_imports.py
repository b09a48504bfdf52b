"""Import smoke: every ``repro.*`` module must import on its own.

The whole suite once failed *collection* because a deleted subpackage
was still imported at module scope by its consumers — an error no unit
test caught, because no unit test imports everything. This walk does:
any module whose import raises (missing sibling, stale re-export,
syntax error) fails here with the module named, instead of surfacing as
dozens of opaque collection errors.

The same tree is then held to the dead-code rule: a module no other
``src/`` module imports is deleted, or kept with its reason written down.
"""

import ast
import importlib.util
import pkgutil
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


def test_dist_package_reexports_its_public_api():
    dist = importlib.import_module("repro.dist")
    for symbol in dist.__all__:
        assert getattr(dist, symbol) is not None


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


# -- the dead-code rule ---------------------------------------------------
# A module stays only if some other src/ module imports it (its own
# package __init__ re-exporting it does not count) or a paper figure /
# contract row listed here needs it. One line per survivor, with the reason.
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
    """``{module: set of src/ modules that import it}`` — directly, as
    ``from pkg import module``, or through a name ``pkg`` re-exports."""
    sources = _module_sources()
    trees = {m: ast.parse(p.read_text()) for m, (p, _) in sources.items()}
    reexports = {}  # package -> {name: defining module}
    for module, (_, is_init) in sources.items():
        if is_init:
            reexports[module] = {
                name: target
                for target, name in _imports(trees[module])
                if name and target in sources and target != module
            }
    importers = {m: set() for m in sources}
    for module in sources:
        for target, name in _imports(trees[module]):
            hits = {target, f"{target}.{name}",
                    reexports.get(target, {}).get(name)}
            for hit in hits & importers.keys():
                importers[hit].add(module)
    return sources, importers


def test_every_module_has_an_importer_or_a_written_reason():
    sources, importers = _importers()
    orphans = []
    for module, (_, is_init) in sources.items():
        if is_init or module.endswith(".__main__"):
            continue
        own_package = module.rpartition(".")[0]
        if not importers[module] - {module, own_package}:
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
