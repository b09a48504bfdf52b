"""perfbench: the repo's wall-clock benchmark.

Four long training workloads, eight end-to-end metrics from an untraced
pass, and per-layer rows from a second pass that is timed from outside
(wrappers installed by this package only, never by ``src/``). The
contract the numbers are gated by lives in ``BENCHMARK.json`` at the
repository root; ``perfbench/README.md`` explains every row.

Importing this package (or any module in it except ``worker``) pulls in
neither ``numpy`` nor ``repro``: the parent process only schedules
workload subprocesses and checks what they report.
"""

from pathlib import Path

#: The checkout: the directory holding ``perfbench/``, ``BENCHMARK.json``
#: and (when it is a full checkout) ``src/``.
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space inside the checkout (git-ignored): temporary trace files
#: of ``train_traced``, span dumps of the traced pass, default result files.
SCRATCH = ROOT / ".perfbench"
