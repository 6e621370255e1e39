"""``--compare A.json B.json``: two suite records judged metric by metric.

A is the base of every ratio. A metric *regresses* when B's median is
worse than A's by more than the bound ``BENCHMARK.json`` fixes for it.
Where a side has at least four runs and A's own spread (inter-quartile
distance over median) is wider than the bound, the pair is *unresolved*,
not unchanged — unless every run of B reads better than every run of A.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

from benchstats import spread


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """``pass``, ``regression`` or ``unresolved`` for B's runs against A's."""
    base, new = statistics.median(a), statistics.median(b)
    change = new / base - 1.0 if base else 0.0
    worse_by = change if better == "lower" else -change
    if len(a) >= 4 and len(b) >= 4 and spread(a) > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return "pass" if all_better else "unresolved"
    return "regression" if worse_by > bound else "pass"


def compare_files(path_a: str, path_b: str, spec: dict[str, Any]) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    print(f"base A = {path_a} (seed {a['host']['seed']}), B = {path_b} (seed {b['host']['seed']})")
    print(f"{'workload':<14}{'metric':<18}{'A':>12}{'B':>12}{'B/A':>8}{'bound':>7}  verdict")
    regressions = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        side_a, side_b = a["workloads"].get(name), b["workloads"].get(name)
        if not side_a or not side_b or "end_to_end" not in side_a or "end_to_end" not in side_b:
            print(f"{name:<14}not measured on both sides")
            continue
        for metric in spec["end_to_end"]:
            va = side_a["end_to_end"][metric["name"]]["values"]
            vb = side_b["end_to_end"][metric["name"]]["values"]
            outcome = verdict(va, vb, metric["better"], metric["bound"])
            ma, mb = statistics.median(va), statistics.median(vb)
            regressions += outcome == "regression"
            print(
                f"{name:<14}{metric['name']:<18}{ma:>12.4f}{mb:>12.4f}{mb / ma:>8.3f}"
                f"{metric['bound']:>7.2f}  {outcome} "
                f"({metric['unit']}, {metric['better']} is better)"
            )
        for side, label in ((side_a, "A"), (side_b, "B")):
            if side["failed"]:
                regressions += 1
                print(f"{name:<14}failed_share {label} = {side['failed_share']:.4f}  regression")
    return 1 if regressions else 0
