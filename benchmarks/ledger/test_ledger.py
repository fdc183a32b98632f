"""Tests of the ledger's own arithmetic.  Not in tier-1 ``testpaths``; run with

    python3 -m pytest benchmarks/ledger/test_ledger.py -q
"""

import importlib
import itertools
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare  # noqa: E402
import harness  # noqa: E402
import probes  # noqa: E402
from workloads.adhoc import statement_stream  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, 1, 0]


def test_self_time_is_duration_minus_direct_children():
    spans = [
        span("core.execute", 0, 100, -1),
        span("sql.parse", 10, 30, 0),
        span("mal.run", 40, 90, 0),
        span("mal.group_by", 50, 80, 2),  # grandchild: only mal.run pays for it
    ]
    assert probes.self_times(spans) == [30, 20, 20, 30]
    assert sum(probes.self_times(spans)) == 100  # closes on the root's duration


def test_outermost_finds_the_root_statement():
    spans = [
        span("server.statement", 0, 100, -1),
        span("core.execute", 5, 95, 0),
        span("core.execute", 10, 90, 1),  # query() calling execute()
        span("mal.run", 20, 80, 2),
    ]
    assert probes.outermost(spans, 3, "core.execute") == 1
    assert probes.outermost(spans, 0, "core.execute") == -1


def test_wal_bytes_follow_truncations():
    totals = probes.LayerTotals(probes.Tracer())
    totals.wal_sizes = [(1, 150), (2, 400), (3, 60), (4, 100)]
    # 100 before; +50, +250, truncated then 60, +40
    assert totals.wal_bytes(100) == 50 + 250 + 60 + 40


def test_install_and_uninstall_leave_the_modules_untouched():
    def bound_names():
        out = []
        for module_name, attribute, _, _ in probes.PROBES:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            out.append(owner.__dict__[leaf])
        return out

    before = bound_names()
    tracer = probes.Tracer()
    tracer.install()
    try:
        during = bound_names()
        assert all(a is not b for a, b in zip(before, during))
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(before, bound_names()))


def test_probe_records_only_while_switched_on():
    tracer = probes.Tracer()
    calls = []
    probe = tracer.wrap(lambda x: calls.append(x) or x * 2, "t.double",
                        lambda args, kwargs, result: result)
    assert probe(2) == 4 and not tracer.threads
    tracer.start()
    outer = tracer.wrap(lambda: probe(5), "t.outer", None)
    assert outer() == 10
    tracer.stop()
    (state,) = tracer.threads
    assert [s[probes.NAME] for s in state.spans] == ["t.outer", "t.double"]
    assert state.spans[1][probes.PARENT] == 0
    assert state.spans[1][probes.COUNT] == 10
    assert state.spans[0][probes.STATEMENT] == state.spans[1][probes.STATEMENT] == 1


def test_percentile_median_geomean():
    values = [5, 1, 4, 2, 3]
    assert harness.median(values) == 3
    assert harness.percentile(values, 0) == 1
    assert harness.percentile(values, 100) == 5
    assert harness.percentile(values, 50) == 3
    assert harness.percentile([10, 20], 95) == pytest.approx(19.5)
    assert harness.geomean([1, 100]) == pytest.approx(10)
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_every_workload_reports_every_metric():
    rec = harness.Recorder()
    rec.recording = True
    rec.add_sample("q", 0.010, rows=5)
    rec.add_sample("q", 0.030, rows=5)
    rec.add_sample("w", 0.002)
    rec.passes = [0.05, 0.05, 0.05]
    rec.appends = [(1000, 0.5)]
    rec.setup_parts = {"generate": 1.0, "load": 0.5, "warmup": 0.25}
    rec.space = (150, 100)
    metrics = harness.end_to_end_metrics(rec, bulk_reads=False)
    assert set(metrics) == {m["name"] for m in compare.SPEC["end_to_end"]}
    assert metrics["setup_s"] == 1.75
    assert metrics["append_rows_per_s"] == 2000
    assert metrics["read_ms_p50"] == pytest.approx(20)
    assert metrics["export_rows_per_s"] == metrics["append_rows_per_s"]
    bulk = harness.end_to_end_metrics(rec, bulk_reads=True)
    assert bulk["export_rows_per_s"] == pytest.approx(10 / 0.040)
    assert bulk["wire_rows_per_s"] == bulk["export_rows_per_s"]
    assert metrics["disk_bytes_per_user_byte"] == 1.5
    # paths the run never touched repeat the path it did use
    assert metrics["copy_in_rows_per_s"] == metrics["append_rows_per_s"]
    assert metrics["commits_per_s"] == metrics["stmts_per_s"] == pytest.approx(20)
    assert metrics["reopen_s"] == 0.5
    assert all(value != 0 for value in metrics.values())


def test_adhoc_stream_is_a_function_of_the_seed():
    from repro.workloads.tpch import generate

    data = generate(0.001, seed=7)
    first = list(itertools.islice(statement_stream(11, data), 400))
    again = list(itertools.islice(statement_stream(11, data), 400))
    other = list(itertools.islice(statement_stream(12, data), 400))
    assert first == again
    assert first != other
    texts = [sql for _, sql in first]
    repeats = len(texts) - len(set(texts))
    assert 0.15 < repeats / len(texts) < 0.35  # the hot quarter


def test_compare_verdicts():
    steady = [1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(steady, [1.05, 1.06, 1.05, 1.04], "lower", 0.10)[3] == "ok"
    assert compare.verdict(steady, [1.30, 1.31, 1.29, 1.30], "lower", 0.10)[3] == "worse"
    assert compare.verdict(steady, [0.70, 0.71, 0.69, 0.70], "higher", 0.10)[3] == "worse"
    assert compare.verdict(steady, [0.70, 0.71, 0.69, 0.70], "lower", 0.10)[3] == "ok"
    noisy = [1.0, 1.4, 0.7, 1.2]
    assert compare.verdict(steady, noisy, "lower", 0.10)[3] == "unresolved"
