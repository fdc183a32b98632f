#!/usr/bin/env python3
"""Compare two ledger result files written by ``run.py --out``.

    python3 benchmarks/ledger/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians, the ratio B/A with
its base, the metric's bound from BENCHMARK.json and a verdict.  ``worse``
means B's median is worse than A's by more than the bound; ``unresolved``
means one side's own run-to-run spread exceeds the bound, so the medians
cannot be told apart; otherwise ``ok``.  Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json").read_text()
)


def spread(values: list) -> float:
    """A side's own spread as a share of its median: the inter-quartile
    distance from four runs up, the full range below that."""
    if len(values) < 2:
        return 0.0
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        width = q3 - q1
    else:
        width = max(values) - min(values)
    return width / statistics.median(values)


def verdict(a: list, b: list, better: str, bound: float) -> tuple:
    """``(median_a, median_b, ratio, verdict)`` for one metric."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    ratio = median_b / median_a
    worsening = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if max(spread(a), spread(b)) > bound:
        return median_a, median_b, ratio, "unresolved"
    return median_a, median_b, ratio, "worse" if worsening > bound else "ok"


def metric_values(runs: list, name: str) -> list:
    return [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]


def compare(a: dict, b: dict) -> list:
    rows = []
    for workload in a["runs"]:
        if workload not in b["runs"]:
            continue
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            va = metric_values(a["runs"][workload], name)
            vb = metric_values(b["runs"][workload], name)
            if va and vb:
                rows.append(
                    (workload, name, metric["unit"], metric["bound"], len(va), len(vb))
                    + verdict(va, vb, metric["better"], metric["bound"])
                )
    return rows


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(a, b)
    print(f"{'workload':14s} {'metric':26s} {'A median':>13s} {'B median':>13s} "
          f"{'B/A':>7s}  {'bound':>5s}  runs   verdict")
    for workload, name, unit, bound, na, nb, ma, mb, ratio, word in rows:
        print(f"{workload:14s} {name:26s} {ma:13.6g} {mb:13.6g} "
              f"{ratio:6.3f}x  {bound:5.0%}  {na}/{nb}    {word}"
              f"  (base A = {ma:.6g} {unit})")
    worse = sum(row[-1] == "worse" for row in rows)
    unresolved = sum(row[-1] == "unresolved" for row in rows)
    print(f"{len(rows)} rows: {worse} worse, {unresolved} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
