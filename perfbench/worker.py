"""Workload subprocess: set up one workload, run it once, report.

``python -m perfbench.worker '<json spec>'`` — started by
:mod:`perfbench.runner` with BLAS pinned to one thread, never by hand.
The clock for ``setup_s`` starts at the top of this file, before NumPy
or ``repro`` is imported, and stops at the call to ``run()``.

The untraced pass installs nothing: it builds the stack through the
public API, calls ``run()`` and reads counters the program keeps anyway.
The traced pass (a separate process) additionally wraps the layers'
public calls (:mod:`perfbench.layers`) and reports per-layer rows.
The last line of stdout is one JSON object.
"""

import time

T_ENTRY = time.perf_counter()

import json  # noqa: E402  (the clock above must start first)
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

from perfbench import SCRATCH  # noqa: E402
from perfbench.workloads import WORKLOADS, Stack, Workload, build  # noqa: E402


def _cpu_s() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def _timed_run(stack: Stack) -> float:
    """Wall seconds of one plain ``run()`` (used by the overhead twins)."""
    t0 = time.perf_counter()
    stack.trainer.run()
    wall = time.perf_counter() - t0
    stack.close()
    return wall


def observability_overhead(
    w: Workload, seed: int, epochs: int, n_samples: int, scratch: str
) -> float:
    """``obs.overhead_ratio``: wall with the program's observability on
    over wall of its untraced twin — same process, same seed, order
    twin-traced-twin-traced, ratio of medians. No benchmark wrapper is
    installed on either side."""
    walls = {False: [], True: []}
    for rep in range(2):
        for observed in (False, True):
            path = os.path.join(scratch, f"twin-{rep}.jsonl") if observed else None
            walls[observed].append(_timed_run(build(w, seed, epochs, n_samples, path)))
            if path is not None:
                os.remove(path)
    return statistics.median(walls[True]) / statistics.median(walls[False])


def host_calibration() -> dict:
    """Two fixed kernels (median of 5 each) so results from different
    hosts can be normalised or refused."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((512, 512))

    def pyloop() -> int:
        total = 0
        for i in range(1_000_000):
            total += i
        return total

    def median_ms(fn) -> float:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1e3

    return {
        "host.matmul_ms": median_ms(lambda: a @ a),
        "host.pyloop_ms": median_ms(pyloop),
    }


def measure(w: Workload, spec: dict, t_import: float, scratch: str) -> dict:
    """Build, run once, and collect everything one pass reports."""
    seed = spec["seed"]
    epochs = w.epochs_for(spec["seconds"], spec["quick"])
    n_samples = w.samples_for(spec["quick"])
    trace_path = os.path.join(scratch, "trace.jsonl") if w.observed else None

    stack = build(w, seed, epochs, n_samples, trace_path)
    t_built = time.perf_counter()
    out = {
        "epochs": epochs,
        "n_train": stack.n_train,
        "setup": {
            "train.setup_import_s": t_import - T_ENTRY,
            "train.setup_data_s": stack.t_data - t_import,
            "train.setup_build_s": t_built - stack.t_data,
        },
    }
    if spec["setup_only"]:
        stack.close()
        out["setup_s"] = t_built - T_ENTRY
        return out

    run = stack.trainer.run
    tracer = shadow = None
    if spec["trace"]:
        from perfbench import layers
        from perfbench.tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        shadow = layers.install(tracer, stack)
        run = tracer.timed(run, ROOT_SPAN)

    cpu0 = _cpu_s()
    t_run = time.perf_counter()
    result = run()
    wall = time.perf_counter() - t_run
    cpu_s = _cpu_s() - cpu0
    stack.close()

    stats = stack.policy.stats()
    client = stack.client
    transport = client.transport if client is not None else None
    facts = {
        "wall_s": wall,
        "requests": stats.requests,
        "hits": stats.hits,
        "substitute_hits": stats.substitute_hits,
        "misses": stats.misses,
        "degraded_serves": stats.degraded_serves,
        "store_fetches": stack.store.fetch_count,
        "skipped": sum(rep.loader.skipped_count for rep in stack.replicas),
        "dropped_admits": client.dropped_admits if client else 0,
        "degraded_lookups": client.degraded_lookups if client else 0,
        "rpc_calls": transport.calls if transport else 0,
        "rpc_failures": transport.failures + transport.timeouts if transport else 0,
        "comm_s_per_epoch": _comm_s_per_epoch(stack),
        "epoch_stages": [
            [e.data_load_s, e.compute_s, e.is_visible_s, e.preprocess_s, e.epoch_time_s]
            for e in result.epochs
        ],
        "wrappers": tracer.installed if tracer else [],
    }
    attempted = facts["requests"] + facts["degraded_serves"] + facts["rpc_calls"]
    failed = (
        facts["skipped"] + facts["dropped_admits"] + facts["degraded_lookups"]
        + facts["rpc_failures"]
    )
    facts["attempted"], facts["failed"] = attempted, failed
    samples = stack.n_train * epochs
    out["facts"] = facts
    out["end_to_end"] = {
        "setup_s": t_run - T_ENTRY,
        "train_samples_per_s": samples / wall,
        "cpu_us_per_sample": cpu_s / samples * 1e6,
        "peak_rss_mb": _peak_rss_mib(),
        "ok_ops_share": 1.0 - failed / attempted,
        "hit_ratio": stats.hit_ratio,
        "val_accuracy": result.final_accuracy,
        "sim_epoch_time_s": result.total_time_s / epochs,
    }
    if tracer is None:
        return out

    table = tracer.analyse()
    rows = layers.layer_metrics(table, tracer, stack)
    rows.update(shadow.replay() if shadow is not None else layers.NO_SHADOW)
    rows["obs.trace_bytes_per_sample"] = (
        os.path.getsize(trace_path) / samples if trace_path else 0.0
    )
    rows["obs.overhead_ratio"] = (
        observability_overhead(w, seed, max(2, epochs // 6), n_samples, scratch)
        if w.observed else 0.0
    )
    rows.update(host_calibration())
    out["per_layer"] = rows
    tracer.save(SCRATCH / f"spans-{w.name}.npz")
    return out


def _comm_s_per_epoch(stack: Stack) -> float:
    """The all-reduce term a data-parallel epoch adds to ``epoch_time_s``
    (it is the one stage ``EpochMetrics`` has no field for)."""
    k = len(stack.replicas)
    if k == 1:
        return 0.0
    per_rank = math.ceil(stack.n_train / k)
    steps = math.ceil(per_rank / stack.replicas[0].loader.batch_size)
    return steps * stack.trainer.comm_ms_per_step / 1e3 * 2 * (k - 1) / k


def host_facts() -> dict:
    """Interpreter, library and thread-pinning facts for the ``host`` block."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_affinity": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
    }


def main(argv) -> int:
    """Run the pass ``argv[0]`` (a JSON spec) describes; print its result."""
    spec = json.loads(argv[0])
    w = WORKLOADS[spec["workload"]]
    # One core for the whole process tree (the shard workers inherit it).
    # The loop is single-threaded and its RPCs are synchronous, so nothing
    # runs in parallel anyway; left to the scheduler, client and shard
    # workers land on different cores in some runs and not in others, and
    # train_sharded's throughput is bimodal (measured: 5.7k vs 3.3k samples/s).
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    # Everything the workload will import, so that import cost is its own
    # row instead of hiding in the first builder call.
    import numpy  # noqa: F401
    import repro.ann.hnsw  # noqa: F401
    import repro.core.policy  # noqa: F401
    import repro.data.registry  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.train.data_parallel  # noqa: F401

    t_import = time.perf_counter()
    SCRATCH.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{w.name}-", dir=SCRATCH)
    try:
        out = measure(w, spec, t_import, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out["host"] = host_facts()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
