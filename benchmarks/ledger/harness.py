"""Measurement core of the ledger: sample recorder, statistics, the pass
loop every workload runs under, and the end-to-end metric definitions.

Every workload is closed-loop: the caller waits for each reply before it
issues the next statement.  A workload exposes ``generate / load / unload /
one_pass / finish / verify`` (see :class:`Workload`); :func:`run_workload`
drives them in that order and is the only place that decides what is
set-up, what is timed and what is checked.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from repro.errors import DatabaseError

#: end-to-end metrics a workload that never touches the named path reports
#: from the path it does use, so every workload prints every metric
#: (README "Metric matrix"): foreign metric -> metric it repeats
FALLBACK = {
    "export_rows_per_s": "append_rows_per_s",
    "copy_in_rows_per_s": "append_rows_per_s",
    "copy_out_rows_per_s": "export_rows_per_s",
    "wire_rows_per_s": "export_rows_per_s",
    "commits_per_s": "stmts_per_s",
}


# -- statistics -------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def geomean(values) -> float:
    values = list(values)
    return float(math.exp(sum(math.log(v) for v in values) / len(values)))


def result_rows(result) -> int:
    """Row count of whatever a read handed to the caller."""
    if isinstance(result, dict):
        return len(next(iter(result.values()))) if result else 0
    return len(result)


# -- recorder ---------------------------------------------------------------------


class Recorder:
    """Client-side log of one workload run: what was asked, how long the
    reply took, how many rows came back, and which checks held."""

    def __init__(self):
        self.recording = False  # True only inside timed passes
        self.samples: dict = {}  # kind -> [seconds]
        self.read_rows: dict = {}  # read kind -> rows handed back, all calls
        self.passes: list = []
        self.appends: list = []  # (rows, seconds) of the largest table
        self.loads: list = []  # seconds of each open + schema + load
        self.setup_parts: dict = {}
        self.native: dict = {}  # metrics a workload measures itself
        self.space = (0, 0)  # (bytes the database holds, bytes the user gave it)
        self.counters = ({}, {})  # traced run: engine counters around the passes
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def add_sample(self, kind: str, seconds: float, rows: int | None = None) -> None:
        if not self.recording:
            return
        self.samples.setdefault(kind, []).append(seconds)
        if rows is not None:
            self.read_rows[kind] = self.read_rows.get(kind, 0) + rows

    def _op(self, kind: str, fn, read: bool):
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except DatabaseError as exc:
            self._fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        seconds = time.perf_counter() - start
        self.add_sample(kind, seconds, result_rows(result) if read else None)
        return result

    def read(self, kind: str, fn):
        """Time a statement whose result the caller consumes inside ``fn``."""
        return self._op(kind, fn, read=True)

    def write(self, kind: str, fn):
        return self._op(kind, fn, read=False)

    def append(self, conn, table: str, columns: dict) -> None:
        """``Connection.append`` (incl. its commit) of the workload's
        largest table; counted whether or not a pass is being timed."""
        rows = len(next(iter(columns.values())))
        start = time.perf_counter()
        self._op("append", lambda: conn.append(table, columns), read=False)
        self.appends.append((rows, time.perf_counter() - start))

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self._fail(f"check {what}: {detail}")


# -- workload protocol ------------------------------------------------------------


class Workload:
    """One named workload.  Subclasses fill in the hooks; sizes are class
    attributes so the README can quote them."""

    name = ""
    #: fresh databases opened and loaded per run; setup_s takes their median
    #: and the appends are the ingest samples of workloads that load only once
    setup_repeats = 3
    warmup_passes = 2
    min_passes = 3
    persistent = False
    #: pin the process to one core.  These workloads have one client thread,
    #: and the interpreter lock serialises the few helper threads the engine
    #: or the in-process server adds; left to spread over two cores, whole
    #: runs came out 20-50 % slower at random (cross-core hand-offs)
    one_core = True
    bulk_reads = False  # reads hand back whole tables: export_rows_per_s is theirs

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.database = None
        self.user_bytes = 0
        self._dirs = 0

    # hooks -------------------------------------------------------------------

    def generate(self) -> None:
        """Make the inputs from ``self.seed`` (benchmark-side work)."""
        raise NotImplementedError

    def load(self, rec: Recorder) -> None:
        """Open a fresh database and load it; runs ``setup_repeats`` times."""
        raise NotImplementedError

    def unload(self) -> None:
        """Dispose of what :meth:`load` opened."""
        import repro

        repro.shutdown()
        self.database = None

    def one_pass(self, rec: Recorder) -> None:
        raise NotImplementedError

    def finish(self, rec: Recorder) -> None:
        """After the timed section: what is measured once (space, reopen)."""
        rec.space = (self.stored_bytes(), self.user_bytes)

    def verify(self, rec: Recorder) -> None:
        raise NotImplementedError

    # helpers -----------------------------------------------------------------

    def fresh_dir(self) -> str | None:
        """A new empty database directory, or None for in-memory."""
        if not self.persistent:
            return None
        self._dirs += 1
        path = self.workdir / f"db{self._dirs}"
        path.mkdir(parents=True)
        return str(path)

    def stored_bytes(self) -> int:
        """Bytes the database holds: its directory when persistent, else
        the column and heap bytes the public ``sys.storage`` reports."""
        if self.database.directory is not None:
            return directory_bytes(self.database.directory)
        conn = self.database.connect()
        try:
            return int(
                conn.query(
                    "SELECT sum(data_bytes) + sum(heap_bytes) FROM sys.storage"
                ).scalar()
            )
        finally:
            conn.close()

    def counters(self) -> dict:
        """The engine's own public counters the traced run reports as deltas
        (``sys.exec_stats``, ``IndexStats``, the metrics registry, log size)."""
        database = self.database
        conn = database.connect()
        try:
            result = conn.query("SELECT * FROM sys.exec_stats")
            row = dict(zip(result.names, result.fetchall()[0]))
        finally:
            conn.close()
        index = database.index_manager.stats
        metric = database.metrics.get_counter
        out = {f"exec.{name}": value for name, value in row.items()}
        out["index.builds"] = (
            index.imprints_built + index.hashes_built + index.hash_refreshes
        )
        out["server.wire_bytes"] = (
            metric("wire_bytes_binary") + metric("wire_bytes_text")
        )
        out["server.shed"] = (
            metric("server_shed_statements") + metric("server_shed_connections")
        )
        out["wal.size"] = database.wal.size if database.wal is not None else 0
        return out


def reopen_s(rec: Recorder, directory: str, table: str, rows: int,
             repeats: int = 7, inspect=None) -> float:
    """Median time of ``repro.startup()`` + first ``count(*)`` on a database
    directory nobody has open; each reopen is checked for its row count and
    the last is handed to ``inspect(conn)`` for further checks."""
    import repro

    samples = []
    for repeat in range(repeats):
        start = time.perf_counter()
        database = repro.startup(directory)
        conn = database.connect()
        count = conn.query(f"SELECT count(*) FROM {table}").scalar()
        samples.append(time.perf_counter() - start)
        rec.check(f"row count of {table} after reopen", count == rows, str(count))
        if inspect is not None and repeat == repeats - 1:
            inspect(conn)
        conn.close()
        repro.shutdown()
    return median(samples)


def directory_bytes(path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def columns_user_bytes(columns: dict) -> int:
    """Bytes of user data in a table handed to ``append``: the NumPy
    buffers, and the UTF-8 length of every string."""
    total = 0
    for array in columns.values():
        if array.dtype == object:
            total += len("".join(array.tolist()).encode("utf-8"))
        else:
            total += array.nbytes
    return total


# -- the run ----------------------------------------------------------------------


def run_workload(workload: Workload, seconds: float, tracer=None) -> Recorder:
    """Set up, measure for ``seconds``, check.  With a tracer the probes are
    switched on for the timed section and the checks that follow it."""
    rec = Recorder()
    clock = time.perf_counter

    start = clock()
    workload.generate()
    rec.setup_parts["generate"] = clock() - start

    for repeat in range(workload.setup_repeats):
        if repeat:
            workload.unload()
            if workload.persistent:
                # the checkpoint its shutdown wrote would otherwise still be
                # on its way to disk while the next load waits for its fsync
                shutil.rmtree(workload.directory)
                os.sync()
        start = clock()
        workload.load(rec)
        rec.loads.append(clock() - start)
    rec.setup_parts["load"] = median(rec.loads)

    start = clock()
    for _ in range(workload.warmup_passes):
        workload.one_pass(rec)
    rec.setup_parts["warmup"] = clock() - start

    if tracer is not None:
        # the same passes with the probes switched off, for the overhead share
        untraced = []
        for _ in range(2):
            start = clock()
            workload.one_pass(rec)
            untraced.append(clock() - start)
        tracer.untraced_pass_s = median(untraced)
        before = workload.counters()
        tracer.start()

    # the cyclic collector runs between passes, never inside one: a pause
    # there would land on whichever statement happened to allocate last
    rec.recording = True
    gc.collect()
    gc.freeze()  # what set-up built is not traversed again
    gc.disable()
    begin = clock()
    while True:
        gc.collect()
        start = clock()
        workload.one_pass(rec)
        now = clock()
        rec.passes.append(now - start)
        if now - begin >= seconds and len(rec.passes) >= workload.min_passes:
            break
    gc.enable()
    gc.unfreeze()
    rec.recording = False
    if tracer is not None:
        tracer.stop()
        rec.counters = (before, workload.counters())
        tracer.end_timed()
        tracer.start()  # the checks' reopens are traced too (storage.load_s)

    workload.finish(rec)
    workload.verify(rec)
    workload.unload()
    if tracer is not None:
        tracer.stop()
    return rec


def end_to_end_metrics(rec: Recorder, bulk_reads: bool) -> dict:
    """The fifteen end-to-end metrics of one untraced run; ``bulk_reads`` is
    the workload's attribute of that name.

    Each has one definition over the recorder's log; a workload overrides a
    value through ``rec.native`` where the issue defines it on a phase (wire
    phase B) or an event the log does not carry (reopen, COPY rates).
    """
    per_kind = {kind: median(values) for kind, values in rec.samples.items()}
    everything = [s for values in rec.samples.values() for s in values]
    reads = [per_kind[kind] for kind in rec.read_rows]
    rows, seconds = zip(*rec.appends)
    metrics = {
        "setup_s": sum(rec.setup_parts.values()),
        "pass_s": median(rec.passes),
        "geomean_ms": geomean(per_kind.values()) * 1e3,
        # statements of a pass over the median pass: a stall in one pass
        # does not move it
        "stmts_per_s": len(everything) / len(rec.passes) / median(rec.passes),
        "stmt_ms_p95": percentile(everything, 95) * 1e3,
        # one read kind: its median.  Several: the geometric mean of their
        # medians, steady where a pooled median would sit on the boundary
        # between two kinds
        "read_ms_p50": geomean(reads) * 1e3,
        "append_rows_per_s": median(rows) / median(seconds),
        "disk_bytes_per_user_byte": rec.space[0] / rec.space[1],
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if bulk_reads:
        # rows handed to the caller per second of the reads that produced
        # them, each kind at its median latency
        metrics["export_rows_per_s"] = sum(rec.read_rows.values()) / sum(
            per_kind[kind] * len(rec.samples[kind]) for kind in rec.read_rows
        )
    metrics.update(rec.native)
    for foreign, source in FALLBACK.items():
        metrics.setdefault(foreign, metrics[source])
    # an in-memory database comes back after a restart by being loaded again
    metrics.setdefault("reopen_s", rec.setup_parts["load"])
    return metrics
