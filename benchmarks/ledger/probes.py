"""Outside-in layer probes: the traced run.

The program under ``src/`` is not edited.  ``Tracer.install`` rebinds the
public names in :data:`PROBES` *where their callers look them up* (a name
imported with ``from x import f`` is rebound in the importing module, a method
on its class) with a wrapper that records one span per call, and
``uninstall`` puts the originals back.

A span is ``[name, start_ns, end_ns, parent, statement_id, count]`` in a
per-thread list; ``parent`` is the index of the innermost span open on that
thread (-1 for none) and ``count`` the rows or bytes the probe's counter read
off the call.  A layer's self time is its spans' duration minus the part their
direct children cover.  End-to-end metrics are never taken from a traced run.

To add a probe: add a row to :data:`PROBES`, a metric to ``layer_metrics`` and
to ``per_layer`` in ``BENCHMARK.json``, and a line to the README's table.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time

from harness import directory_bytes, median, percentile


def _rows_of_first(args, kwargs, result):
    return len(args[0][0]) if args[0] else 0


def _join_rows(args, kwargs, result):
    left = len(args[0][0]) if args[0] else 0
    right = len(args[1][0]) if args[1] else 0
    return (left + right, len(result[0]))


#: (module the name is looked up in, attribute, span name, counter)
#: counter(args, kwargs, result) -> a number or tuple stored with the span
PROBES = [
    # core: the root span around every embedded statement, and result hand-over
    ("repro.core.connection", "Connection.execute", "core.execute", None),
    ("repro.core.connection", "Connection.execute_prepared", "core.execute", None),
    ("repro.core.connection", "Connection.append", "core.execute", None),
    ("repro.core.result", "Result.to_dict", "core.result", None),
    ("repro.core.result", "Result.to_numpy", "core.result", None),
    ("repro.core.result", "Result.fetchall", "core.result", None),
    # sql / algebra / mal.codegen: the front end
    ("repro.core.connection", "parse", "sql.parse", None),
    ("repro.sql.parser", "parse", "sql.parse", None),
    ("repro.core.connection", "bind_statement", "algebra.bind", None),
    ("repro.core.connection", "optimize", "algebra.optimize", None),
    ("repro.core.connection", "compile_select", "mal.compile", None),
    ("repro.mal.interpreter", "compile_select", "mal.compile", None),
    # mal: interpreter and kernels
    ("repro.mal.interpreter", "Interpreter.run", "mal.run", None),
    ("repro.mal.operators", "group_by", "mal.group_by", _rows_of_first),
    ("repro.mal.operators", "aggregate", "mal.aggregate", None),
    ("repro.mal.operators", "join_pairs", "mal.join_pairs", _join_rows),
    ("repro.mal.operators", "semijoin_rows", "mal.semijoin", None),
    ("repro.mal.operators", "sort_rows", "mal.sort", None),
    ("repro.mal.operators", "topn_rows", "mal.topn", None),
    ("repro.mal.operators", "distinct_rows", "mal.distinct", None),
    ("repro.mal.operators", "window_context", "mal.window", None),
    ("repro.mal.operators", "window_apply", "mal.window", None),
    ("repro.mal.interpreter", "eval_pred", "mal.eval_pred", None),
    ("repro.mal.interpreter", "eval_value", "mal.eval_value", None),
    ("repro.core.connection", "eval_pred", "mal.eval_pred", None),
    ("repro.core.connection", "eval_value", "mal.eval_value", None),
    ("repro.exec.executor", "eval_pred", "mal.eval_pred", None),
    ("repro.exec.executor", "eval_value", "mal.eval_value", None),
    # exec
    ("repro.exec.executor", "try_morsel_execute", "exec.morsel_execute", None),
    # cache: count 1 for a hit
    ("repro.cache.plan_cache", "PlanCache.lookup", "cache.plan_lookup",
     lambda a, k, r: 1 if r is not None else 0),
    ("repro.cache.plan_cache", "PlanCache.store", "cache.plan_store", None),
    # index
    ("repro.index.manager", "IndexManager.hash_for", "index.hash_for", None),
    ("repro.index.manager", "IndexManager.imprint_for", "index.imprint_for", None),
    # storage: log size after the append; directory size after the checkpoint
    ("repro.storage.wal", "WriteAheadLog.append", "storage.wal_append",
     lambda a, k, r: a[0].size),
    ("repro.core.database", "checkpoint_database", "storage.checkpoint",
     lambda a, k, r: directory_bytes(a[0])),
    ("repro.core.database", "load_database", "storage.load", None),
    ("repro.storage.wal", "WriteAheadLog.replay", "storage.wal_replay", None),
    # txn
    ("repro.txn.manager", "TransactionManager.commit", "txn.commit", None),
    ("repro.txn.manager", "TransactionManager.rollback", "txn.rollback", None),
    # copy: (rows, bytes)
    ("repro.copy", "load_into", "copy.load",
     lambda a, k, r: (r.rows_loaded, r.bytes_read)),
    ("repro.copy.reader", "parse_chunk", "copy.parse_chunk", None),
    ("repro.copy", "export_csv", "copy.export", lambda a, k, r: (r[0], r[1])),
    # interface
    ("repro.interface.zerocopy", "export_column", "interface.export_column", None),
    ("repro.interface.zerocopy", "convert_column", "interface.convert_column", None),
    # server: both ends of the socket; queue wait in microseconds
    ("repro.server.client", "RemoteConnection.execute", "server.request", None),
    ("repro.server.client", "RemoteConnection.execute_prepared", "server.request",
     None),
    ("repro.server.client", "decode_block", "server.decode_block", None),
    ("repro.server.session", "Session.handle", "server.statement",
     lambda a, k, r: k.get("queue_wait_us") or 0.0),
    ("repro.server.session", "encode_block", "server.encode_block",
     lambda a, k, r: len(r)),
]

NAME, START, END, PARENT, STATEMENT, COUNT = range(6)


class _ThreadSpans:
    def __init__(self, thread: str):
        self.thread = thread
        self.spans: list = []
        self.stack: list = []
        self.statements = 0


class Tracer:
    def __init__(self):
        self.on = False
        self.untraced_pass_s = 0.0
        self.timed_end_ns = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list = []
        self._originals: list = []
        self._wire_ids: dict = {}

    # -- install / uninstall ---------------------------------------------------------

    def install(self) -> None:
        for module_name, attribute, span, counter in PROBES:
            owner = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            self._originals.append((owner, leaf, original))
            if isinstance(original, classmethod):
                probe = classmethod(self.wrap(original.__func__, span, counter))
            else:
                probe = self.wrap(original, span, counter)
            setattr(owner, leaf, probe)

    def uninstall(self) -> None:
        while self._originals:
            owner, leaf, original = self._originals.pop()
            setattr(owner, leaf, original)

    # -- recording -------------------------------------------------------------------

    def _state(self) -> _ThreadSpans:
        state = _ThreadSpans(threading.current_thread().name)
        self._local.state = state
        with self._lock:
            self.threads.append(state)
        return state

    def _wire_statement(self, span: str, args) -> int:
        """Statement id shared by the two ends of a connection: the n-th
        client and the n-th session are the same socket, and both count the
        statements (``Q``/``E`` frames) they have seen."""
        if span == "server.statement" and args[1] not in (b"Q", b"E"):
            return 0
        with self._lock:
            ends = self._wire_ids.setdefault(span, {})
            entry = ends.setdefault(id(args[0]), [len(ends) + 1, 0])
            entry[1] += 1
            return entry[0] * 1_000_000 + entry[1]

    def wrap(self, fn, span: str, counter):
        clock = time.perf_counter_ns
        local = self._local
        wire = span in ("server.request", "server.statement")

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            state = getattr(local, "state", None) or self._state()
            stack = state.stack
            if stack:
                parent = stack[-1]
                statement = state.spans[parent][STATEMENT]
            else:
                parent = -1
                state.statements += 1
                statement = state.statements
            if wire:
                statement = self._wire_statement(span, args) or statement
            record = [span, 0, 0, parent, statement, 0]
            stack.append(len(state.spans))
            state.spans.append(record)
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if counter is not None:
                record[COUNT] = counter(args, kwargs, result)
            return result

        return probe

    def start(self) -> None:
        self.on = True

    def end_timed(self) -> None:
        """Spans that start after this belong to the checks, not the passes."""
        self.timed_end_ns = time.perf_counter_ns()

    def stop(self) -> None:
        self.on = False

    # -- output ----------------------------------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        events = []
        for tid, state in enumerate(self.threads):
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": state.thread},
            })
            for span in state.spans:
                events.append({
                    "name": span[NAME], "ph": "X", "pid": 1, "tid": tid,
                    "ts": span[START] / 1e3, "dur": (span[END] - span[START]) / 1e3,
                    "args": {"statement": span[STATEMENT], "count": span[COUNT]},
                })
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)


# -- span arithmetic ----------------------------------------------------------------


def self_times(spans: list) -> list:
    """Self time (ns) of each span of one thread: its duration minus the
    duration of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def outermost(spans: list, index: int, name: str) -> int:
    """Index of the outermost ancestor-or-self of ``index`` named ``name``,
    or -1 when no span on the way up carries the name."""
    found = -1
    while index >= 0:
        if spans[index][NAME] == name:
            found = index
        index = spans[index][PARENT]
    return found


class LayerTotals:
    """Per-name sums over the spans of the timed section."""

    def __init__(self, tracer: Tracer):
        self.self_s: dict = {}
        self.calls: dict = {}
        self.counts: dict = {}
        self.reopen_self_s = 0.0  # load_database + log replay, in the checks
        self.reopens = 0
        self.statement_s: list = []  # outermost core.execute durations
        self.closed_self_s = 0.0  # self time inside those statements
        self.hit_ms: list = []
        self.miss_ms: list = []
        self.wal_sizes: list = []  # (start_ns, log size after the append)
        self.spans = 0
        end = tracer.timed_end_ns
        for state in tracer.threads:
            spans = state.spans
            own = self_times(spans)
            for index, span in enumerate(spans):
                name = span[NAME]
                seconds = own[index] / 1e9
                if end is not None and span[START] >= end:
                    # the checks: every reopen replays the log exactly once
                    if name in ("storage.load", "storage.wal_replay"):
                        self.reopen_self_s += seconds
                        self.reopens += name == "storage.wal_replay"
                    continue
                self.spans += 1
                self.self_s[name] = self.self_s.get(name, 0.0) + seconds
                self.calls[name] = self.calls.get(name, 0) + 1
                self._count(name, span[COUNT])
                root = outermost(spans, index, "core.execute")
                if root >= 0:
                    self.closed_self_s += seconds
                if root == index:
                    self.statement_s.append((span[END] - span[START]) / 1e9)
                if name == "cache.plan_lookup" and root >= 0:
                    top = spans[root]
                    millis = (top[END] - top[START]) / 1e6
                    (self.hit_ms if span[COUNT] else self.miss_ms).append(millis)
                if name == "storage.wal_append":
                    self.wal_sizes.append((span[START], span[COUNT]))

    def _count(self, name: str, count) -> None:
        if isinstance(count, tuple):
            previous = self.counts.get(name, (0,) * len(count))
            self.counts[name] = tuple(a + b for a, b in zip(previous, count))
        else:
            self.counts[name] = self.counts.get(name, 0) + count

    def wal_bytes(self, size_before: int) -> int:
        """Bytes the appends added: differences of the log size each left
        behind; a smaller size means a checkpoint truncated the log."""
        total, previous = 0, size_before
        for _, size in sorted(self.wal_sizes):
            total += size - previous if size >= previous else size
            previous = size
        return total


def layer_metrics(tracer: Tracer, rec) -> dict:
    """Every ``per_layer`` metric of BENCHMARK.json.  Times (``_s``), calls
    (``_n``), rows and bytes are *per pass*, so runs of different length
    compare; ratios and percentiles are over the whole timed section."""
    totals = LayerTotals(tracer)
    passes = len(rec.passes)
    before, after = rec.counters

    def s(name):
        return totals.self_s.get(name, 0.0) / passes

    def n(name):
        return totals.calls.get(name, 0) / passes

    def count(name, position=None):
        value = totals.counts.get(name, 0)
        if position is not None:
            value = value[position] if value else 0
        return value / passes

    def delta(name):
        return (after.get(name, 0) - before.get(name, 0)) / passes

    lookups = totals.calls.get("cache.plan_lookup", 0)
    exports = totals.calls.get("interface.export_column", 0)
    busy = after.get("exec.busy_ms", 0) - before.get("exec.busy_ms", 0)
    wall = after.get("exec.wall_ms", 0) - before.get("exec.wall_ms", 0)
    workers = max(1, after.get("exec.last_workers", 1))
    return {
        "core.execute_s": sum(totals.statement_s) / passes,
        "core.glue_s": s("core.execute"),
        "core.result_s": s("core.result"),
        "core.result_n": n("core.result"),
        "core.stmt_ms_p99": (
            percentile(totals.statement_s, 99) * 1e3 if totals.statement_s else 0.0
        ),
        "sql.parse_s": s("sql.parse"),
        "sql.parse_n": n("sql.parse"),
        "algebra.bind_s": s("algebra.bind"),
        "algebra.optimize_s": s("algebra.optimize"),
        "algebra.bind_n": n("algebra.bind"),
        "mal.compile_s": s("mal.compile"),
        "mal.run_s": s("mal.run"),
        "mal.group_by_s": s("mal.group_by"),
        "mal.group_by_rows": count("mal.group_by"),
        "mal.aggregate_s": s("mal.aggregate"),
        "mal.join_pairs_s": s("mal.join_pairs"),
        "mal.join_pairs_rows_in": count("mal.join_pairs", 0),
        "mal.join_pairs_rows_out": count("mal.join_pairs", 1),
        "mal.semijoin_s": s("mal.semijoin"),
        "mal.sort_s": s("mal.sort"),
        "mal.topn_s": s("mal.topn"),
        "mal.distinct_s": s("mal.distinct"),
        "mal.window_s": s("mal.window"),
        "mal.eval_pred_s": s("mal.eval_pred"),
        "mal.eval_value_s": s("mal.eval_value"),
        "exec.morsel_execute_s": s("exec.morsel_execute"),
        "exec.fragments_n": delta("exec.fragments_completed"),
        "exec.morsels_n": delta("exec.morsels_completed"),
        "exec.worker_utilization": busy / (wall * workers) if wall else 0.0,
        "cache.plan_lookup_n": n("cache.plan_lookup"),
        "cache.plan_hit_n": count("cache.plan_lookup"),
        "cache.plan_hit_ratio": (
            totals.counts.get("cache.plan_lookup", 0) / lookups if lookups else 0.0
        ),
        "cache.plan_lookup_s": s("cache.plan_lookup"),
        "cache.plan_store_n": n("cache.plan_store"),
        "cache.hit_stmt_ms_p50": median(totals.hit_ms) if totals.hit_ms else 0.0,
        "cache.miss_stmt_ms_p50": median(totals.miss_ms) if totals.miss_ms else 0.0,
        "index.hash_for_s": s("index.hash_for"),
        "index.imprint_for_s": s("index.imprint_for"),
        "index.builds_n": delta("index.builds"),
        "storage.wal_append_s": s("storage.wal_append"),
        "storage.wal_append_n": n("storage.wal_append"),
        "storage.wal_bytes": totals.wal_bytes(before.get("wal.size", 0)) / passes,
        "storage.checkpoint_s": s("storage.checkpoint"),
        "storage.checkpoint_bytes": count("storage.checkpoint"),
        "storage.load_s": (
            totals.reopen_self_s / totals.reopens if totals.reopens else 0.0
        ),
        "storage.disk_bytes": rec.space[0],
        "storage.user_bytes": rec.space[1],
        "txn.commit_s": s("txn.commit"),
        "txn.commit_n": n("txn.commit"),
        "txn.rollback_n": n("txn.rollback"),
        "copy.load_s": s("copy.load"),
        "copy.parse_chunk_s": s("copy.parse_chunk"),
        "copy.export_s": s("copy.export"),
        "copy.rows_in": count("copy.load", 0),
        "copy.rows_out": count("copy.export", 0),
        "copy.bytes_in": count("copy.load", 1),
        "copy.bytes_out": count("copy.export", 1),
        "interface.export_column_s": s("interface.export_column"),
        "interface.export_column_n": n("interface.export_column"),
        "interface.convert_column_n": n("interface.convert_column"),
        "interface.zero_copy_ratio": (
            1.0 - totals.calls.get("interface.convert_column", 0) / exports
            if exports else 0.0
        ),
        "server.encode_block_s": s("server.encode_block"),
        "server.encode_bytes": count("server.encode_block"),
        "server.decode_block_s": s("server.decode_block"),
        "server.statement_s": s("server.statement"),
        "server.queue_wait_s": count("server.statement") / 1e6,
        "server.wire_bytes": delta("server.wire_bytes"),
        "server.shed_n": delta("server.shed"),
        "ledger.trace_overhead_share": (
            median(rec.passes) / tracer.untraced_pass_s - 1.0
        ),
        "ledger.spans_n": totals.spans / passes,
        # not in BENCHMARK.json: the closed-sum check reads it
        "ledger.closed_self_s": totals.closed_self_s / passes,
    }


# -- layer-split sanity check ---------------------------------------------------------

FRONT_END = ("sql.parse_s", "algebra.bind_s", "algebra.optimize_s", "mal.compile_s")
ONLY_ON = {"exec.": "tpch_parallel", "server.": "wire", "copy.": "ingest_export"}


def layer_split_check(workload: str, m: dict) -> list:
    """PASS/WARN lines.  A WARN means resize the workload, not loosen the
    check (README, "Layer-split sanity check")."""
    execute = m["core.execute_s"]
    front = sum(m[name] for name in FRONT_END)
    kernels = sum(
        value for name, value in m.items()
        if name.startswith("mal.") and name.endswith("_s") and name != "mal.compile_s"
    )
    lines = []

    def verdict(ok: bool, text: str) -> None:
        lines.append(f"{'PASS' if ok else 'WARN'} {workload}: {text}")

    closed = m["ledger.closed_self_s"]
    verdict(
        execute > 0 and abs(closed - execute) <= 0.01 * execute,
        f"self times inside statements sum to {closed:.4f}s of "
        f"core.execute_s {execute:.4f}s",
    )
    if workload == "tpch_hot":
        verdict(kernels >= 0.70 * execute,
                f"mal.* is {kernels / execute:.0%} of core.execute_s (>= 70%)")
        verdict(front <= 0.05 * execute,
                f"sql+algebra+mal.compile is {front / execute:.1%} (<= 5%)")
    if workload == "adhoc_small":
        others = {
            "mal.*": kernels,
            "cache": m["cache.plan_lookup_s"],
            "core.glue": m["core.glue_s"],
            "txn+storage": m["txn.commit_s"] + m["storage.wal_append_s"],
        }
        verdict(
            front >= 0.40 * execute and front >= max(others.values()),
            f"sql+algebra+mal.compile is {front / execute:.0%} of core.execute_s "
            "(>= 40% and the largest share)",
        )
    for prefix, home in ONLY_ON.items():
        busy = any(
            value for name, value in m.items()
            if name.startswith(prefix) and not name.endswith("utilization")
        )
        verdict(
            busy == (workload == home),
            f"{prefix}* is {'non-zero' if busy else 'zero'} (non-zero only on {home})",
        )
    return lines
