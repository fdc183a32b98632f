#!/usr/bin/env python3
"""The performance ledger's one command.

    python3 benchmarks/ledger/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--runs N] [--out PATH]

Each workload runs in a fresh child interpreter, so caches and ``ru_maxrss``
do not leak between workloads.  ``--trace 0`` (default) prints the
end-to-end metrics; ``--trace 1`` wraps the layers' public entry points from
outside (``probes.py``) and prints the per-layer metrics instead.  The last
line of standard output is one JSON object; with a single ``--workload`` it
is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CHILD_TIMEOUT_S = 170


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--runs", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", help="write every run's result here as JSON")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.traced:
        args.trace = 1
    return args


# -- child: one workload, this process ----------------------------------------------


def child(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import probes
    from workloads import REGISTRY

    os.sync()  # start with a quiet disk, whatever the run before left dirty
    workdir = HERE / ".work" / f"{args.child}-{os.getpid()}"
    workload = REGISTRY[args.child](args.seed, workdir)
    if workload.one_core:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = probes.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        rec = harness.run_workload(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is None:
        values = harness.end_to_end_metrics(rec, workload.bulk_reads)
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        extra = {}
    else:
        values = probes.layer_metrics(tracer, rec)
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        extra = {"sanity": probes.layer_split_check(args.child, values)}
        if args.out:
            tracer.write_chrome_trace(f"{args.out}.{args.child}.trace.json")
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
        "samples": {
            "passes": len(rec.passes),
            "statements": sum(len(v) for v in rec.samples.values()),
            "fsync": "off" if os.environ.get("REPRO_NO_FSYNC") else "per-commit",
        },
        "failures": rec.failures,
        **extra,
    }
    print(json.dumps(result))
    return 0


# -- parent: spawn, collect, print ----------------------------------------------------


def run_child(name: str, args) -> dict | None:
    command = [
        sys.executable, str(HERE / "run.py"), "--child", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.out:
        command += ["--out", args.out]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            env={**os.environ, "PYTHONHASHSEED": "0"},
        )
    except subprocess.TimeoutExpired:
        print(f"{name}: timed out after {CHILD_TIMEOUT_S}s", file=sys.stderr)
        return None
    if done.returncode != 0 or not done.stdout.strip():
        print(f"{name}: child exited with code {done.returncode}", file=sys.stderr)
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_result(name: str, result: dict) -> None:
    samples = result["samples"]
    print(
        f"== {name}: {samples['passes']} passes, {samples['statements']} statements, "
        f"fsync {samples['fsync']}, ops {result['attempted']} attempted / "
        f"{result['failed']} failed"
    )
    for metric, cell in result["metrics"].items():
        print(f"   {metric:32s} {cell['value']:>16.6g} {cell['unit']}")
    for line in result.get("sanity", []):
        print(f"   {line}")
    sys.stdout.flush()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child(args)
    names = args.workload or WORKLOADS
    runs: dict = {name: [] for name in names}
    ok = True
    for name in names:
        for _ in range(args.runs):
            result = run_child(name, args)
            if result is None:
                return 1
            print_result(name, result)
            runs[name].append(result)
            ok = ok and result["correct"]
    if args.out:
        meta = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace}
        Path(args.out).write_text(json.dumps({"meta": meta, "runs": runs}, indent=1))
    contract = ("correct", "attempted", "failed", "metrics")
    if len(names) == 1 and args.runs == 1:
        last = {key: runs[names[0]][0][key] for key in contract}
    else:
        last = {
            "correct": ok,
            "attempted": sum(r["attempted"] for rs in runs.values() for r in rs),
            "failed": sum(r["failed"] for rs in runs.values() for r in rs),
            "workloads": {
                name: [r["metrics"] for r in rs] for name, rs in runs.items()
            },
        }
    print(json.dumps(last))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
