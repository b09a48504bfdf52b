"""``python -m perfbench compare A.json B.json [...]``.

Each file is a ``perfbench run`` result (several ``--repeats`` give each
side a spread). Per workload and end-to-end metric the table shows both
medians, the change relative to the first file's median, the bound from
``BENCHMARK.json``, and a verdict:

``regressed``   B's median is worse than A's by more than the bound;
``improved``    better by more than the bound;
``unchanged``   within the bound;
``unresolved``  the spread inside a side (inter-quartile range over its
                median) is wider than the bound, so the bound cannot be
                resolved — never reported as unchanged.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List


def _values(report: dict, workload: str, metric: str) -> List[float]:
    return [
        r["end_to_end"][metric]["value"]
        for r in report["results"] if r["workload"] == workload
    ]


def spread(values: List[float]) -> float:
    """Inter-quartile range as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Dict[str, float]:
    """Medians, signed worsening (positive = worse) and the verdict."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    change = (med_b - med_a) / abs(med_a)
    worse_by = change if better == "lower" else -change
    widest = max(spread(a), spread(b))
    if widest > bound:
        word = "unresolved"
    elif worse_by > bound:
        word = "regressed"
    elif worse_by < -bound:
        word = "improved"
    else:
        word = "unchanged"
    return {"a": med_a, "b": med_b, "change": change, "spread": widest, "verdict": word}


def compare_files(paths: List[str], contract: dict) -> int:
    """Print the comparison tables; 1 if any row regressed or is unresolved."""
    reports = []
    for path in paths:
        with open(path) as fh:
            reports.append(json.load(fh))
    base, bad = reports[0], 0
    for path, other in zip(paths[1:], reports[1:]):
        print(f"A = {paths[0]} ({base['host'].get('git_commit')})")
        print(f"B = {path} ({other['host'].get('git_commit')})")
        header = (f"{'workload':<14} {'metric':<20} {'A median':>12} {'B median':>12} "
                  f"{'B vs A':>9} {'bound':>7} {'spread':>7} {'n':>5}  verdict")
        print(header)
        for workload in dict.fromkeys(r["workload"] for r in base["results"]):
            for metric in contract["end_to_end"]:
                a = _values(base, workload, metric["name"])
                b = _values(other, workload, metric["name"])
                if not b:
                    continue
                v = verdict(a, b, metric["better"], metric["bound"])
                bad += v["verdict"] in ("regressed", "unresolved")
                print(
                    f"{workload:<14} {metric['name']:<20} {v['a']:>12.6g} {v['b']:>12.6g} "
                    f"{v['change']:>+9.2%} {metric['bound']:>7.2%} {v['spread']:>7.2%} "
                    f"{len(a):>2}/{len(b):<2}  {v['verdict']}"
                )
    print("B vs A is relative to A's median; spread is the wider side's IQR/median.")
    return 1 if bad else 0
