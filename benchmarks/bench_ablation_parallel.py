"""Ablation: morsel-driven parallel execution vs sequential.

Two entry points:

* pytest-benchmark parametrizations over the paper's Figure 2 query
  (``SELECT median(sqrt(i * 2)) FROM tbl``) comparing sequential
  execution with the morsel executor;
* a standalone worker sweep for the CI smoke job::

      PYTHONPATH=src python benchmarks/bench_ablation_parallel.py --json out.json

  The sweep runs TPC-H Q1 and Q6 sequentially and with the morsel
  executor at 1, 2 and 4 workers, asserts result equality at every
  point, and reports speedup and parallel efficiency
  (``speedup / workers``) as a JSON artifact.  Two gates fail the job:

  * single worker: morsel overhead > ``--overhead-limit`` (15%) over
    sequential — morsels must be nearly free when there is no
    parallelism to win;
  * 4 workers on a >= 4-core host: speedup < ``--speedup-floor``
    (1.8x) on the slower of Q1/Q6.
"""

import argparse
import json
import os
import statistics
import time

import numpy as np
import pytest

ROWS = 2_000_000
FIG2_QUERY = "SELECT median(sqrt(i * 2)) FROM tbl"

SCALE_FACTOR = 0.1
SWEEP_WORKERS = (1, 2, 4)
SWEEP_QUERIES = {1: "Q1", 6: "Q6"}


def _database(parallel: bool):
    from repro.core.database import Database

    database = Database(
        None, parallel=parallel, min_parallel_rows=1 << 16, max_workers=4,
    )
    connection = database.connect()
    connection.execute("CREATE TABLE tbl (i BIGINT)")
    rng = np.random.default_rng(0)
    connection.append("tbl", {"i": rng.integers(0, 1_000_000, ROWS)})
    return database, connection


_MODES = {
    "sequential": dict(parallel=False),
    "morsel": dict(parallel=True),
}


@pytest.mark.parametrize("mode", list(_MODES), ids=list(_MODES))
def test_fig2_median_sqrt(benchmark, mode):
    database, connection = _database(**_MODES[mode])
    try:
        benchmark(lambda: connection.query(FIG2_QUERY).scalar())
    finally:
        database.shutdown()


@pytest.mark.parametrize("mode", list(_MODES), ids=list(_MODES))
def test_selective_filter(benchmark, mode):
    database, connection = _database(**_MODES[mode])
    try:
        benchmark(
            lambda: connection.query(
                "SELECT count(*) FROM tbl WHERE i * 3 > 1500000"
            ).scalar()
        )
    finally:
        database.shutdown()


# -- standalone worker sweep (CI smoke job) -----------------------------------------


def _norm(rows):
    return [
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    ]


def _time(connection, sql: str, runs: int) -> float:
    connection.execute(sql).fetchall()  # warm up (first-touch + plan cache)
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        connection.execute(sql).fetchall()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", help="write results to this file")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--scale", type=float, default=SCALE_FACTOR)
    parser.add_argument("--overhead-limit", type=float, default=0.15,
                        help="max 1-worker morsel overhead vs sequential")
    parser.add_argument("--speedup-floor", type=float, default=1.8,
                        help="min 4-worker speedup on >=4-core hosts")
    args = parser.parse_args()

    from repro.core.database import Database
    from repro.workloads.tpch import QUERIES, generate, load

    database = Database(
        None, parallel=True, max_workers=max(SWEEP_WORKERS),
        min_parallel_rows=1 << 14,
    )
    connection = database.connect()
    load(connection, generate(args.scale, seed=42))
    config = database.config

    cores = os.cpu_count() or 1
    results = []
    failures = []
    try:
        for number, label in SWEEP_QUERIES.items():
            sql = QUERIES[number]
            config.parallel = False
            baseline_rows = _norm(connection.execute(sql).fetchall())
            seq = _time(connection, sql, args.runs)
            entry = {"query": label, "sequential_s": round(seq, 6),
                     "workers": []}
            for workers in SWEEP_WORKERS:
                config.parallel = True
                config.max_workers = workers
                rows = _norm(connection.execute(sql).fetchall())
                assert rows == baseline_rows, (
                    f"{label} diverged at {workers} worker(s)"
                )
                elapsed = _time(connection, sql, args.runs)
                speedup = seq / elapsed if elapsed > 0 else None
                entry["workers"].append({
                    "workers": workers,
                    "time_s": round(elapsed, 6),
                    "speedup": round(speedup, 3),
                    "efficiency": round(speedup / workers, 3),
                })
                print(
                    f"{label}  workers={workers}  seq={seq * 1e3:8.2f} ms"
                    f"  morsel={elapsed * 1e3:8.2f} ms"
                    f"  speedup={speedup:5.2f}x"
                    f"  efficiency={speedup / workers:4.2f}"
                )
                if workers == 1:
                    overhead = elapsed / seq - 1.0
                    entry["overhead_1w"] = round(overhead, 3)
                    if overhead > args.overhead_limit:
                        failures.append(
                            f"{label}: 1-worker morsel overhead "
                            f"{overhead:.1%} > {args.overhead_limit:.0%}"
                        )
                if workers == 4 and cores >= 4 and speedup < args.speedup_floor:
                    failures.append(
                        f"{label}: 4-worker speedup {speedup:.2f}x "
                        f"< {args.speedup_floor}x on {cores} cores"
                    )
            results.append(entry)
        snapshot = database.exec_stats.snapshot()
    finally:
        database.shutdown()

    payload = {
        "scale_factor": args.scale,
        "cores": cores,
        "runs": args.runs,
        "results": results,
        "exec_stats": snapshot,
        "failures": failures,
    }
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json}")

    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
