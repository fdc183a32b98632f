"""Database lifecycle: startup, the single-instance guard, shutdown.

Paper section 3.2: *"The database can be initialized using the
monetdb_startup function [taking] as optional parameter a reference to a
directory in which it can persistently store any data. If no directory is
provided, MonetDBLite will be launched in an in-memory only mode."*

Paper section 3.4 documents that global state makes it *impossible to run
MonetDBLite twice in the same process*; we reproduce that limitation (and
its error behavior) deliberately with a module-level instance guard, and we
reproduce the "Garbage Collection" requirement by making
:meth:`Database.shutdown` release every piece of state so a fresh database
can be started afterwards in the same process.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.cache import PlanCache, ResultCache
from repro.errors import DatabaseLockedError, StartupError
from repro.exec.stats import ExecStats
from repro.index import IndexManager
from repro.mal.interpreter import ExecutionConfig
from repro.obs import MetricsRegistry, QueryLog, SpanTracer
from repro.obs.systables import register_sys_tables, storage_rows
from repro.storage.catalog import Catalog, ColumnDef, TableSchema
from repro.storage.column import Column
from repro.storage.persist import (
    checkpoint_database,
    database_exists,
    load_database,
)
from repro.storage.table import Table
from repro.storage.types import parse_type
from repro.storage.wal import WriteAheadLog
from repro.txn import TransactionManager

__all__ = ["Database", "startup", "shutdown", "active_database"]

_instance_lock = threading.RLock()
_active: "Database | None" = None

#: Checkpoint once the WAL grows past this size (bytes).
WAL_CHECKPOINT_BYTES = 64 * 1024 * 1024


def startup(directory: str | None = None, **config_kwargs) -> "Database":
    """Start the process-wide database instance (``monetdb_startup``).

    Raises :class:`~repro.errors.DatabaseLockedError` if an instance is
    already running in this process — the paper's single-instance
    limitation, reproduced.
    """
    global _active
    with _instance_lock:
        if _active is not None:
            raise DatabaseLockedError(
                "database locked: a database is already running in this "
                "process; shut it down first (MonetDBLite limitation, "
                "paper section 5.1)"
            )
        database = Database(directory, **config_kwargs)
        _active = database
        return database


def shutdown() -> None:
    """Shut down the active instance, releasing all global state."""
    global _active
    with _instance_lock:
        if _active is not None:
            _active.shutdown()
            _active = None


def active_database() -> "Database | None":
    return _active


class Database:
    """One embedded database instance (in-memory or persistent)."""

    def __init__(self, directory: str | None = None, **config_kwargs):
        self.directory = Path(directory) if directory else None
        self.in_memory = directory is None
        self.catalog = Catalog()
        self.txn_manager = TransactionManager(self)
        self.index_manager = IndexManager()
        self.config = ExecutionConfig(**config_kwargs)
        self.metrics = MetricsRegistry()
        self._stats = self.metrics.counters  # legacy stats() face
        self.plan_cache = PlanCache(
            self.config.plan_cache_entries,
            self.config.plan_cache_bytes,
            metrics=self.metrics,
        )
        self.result_cache = ResultCache(
            self.config.result_cache_bytes if self.config.result_cache else 0,
            metrics=self.metrics,
        )
        self.query_log = QueryLog(
            size=self.config.query_log_size,
            slow_query_us=self.config.slow_query_us,
        )
        self.span_tracer = SpanTracer(
            enabled=self.config.trace_spans,
            sample_rate=self.config.span_sample_rate,
            slow_us=self.config.span_slow_us,
            buffer_size=self.config.span_buffer_size,
            metrics=self.metrics,
        )
        self.exec_stats = ExecStats(self.metrics)
        self._session_lock = threading.Lock()
        self._shutdown_lock = threading.Lock()
        self._sessions: dict = {}
        self._session_seq = itertools.count(1)
        #: ring buffer behind sys.copy_history; rejects of the last COPY
        #: back sys.rejects (MonetDB keeps them per-load too)
        self.copy_history: deque = deque(maxlen=256)
        self.copy_rejects: list = []
        self._copy_seq = itertools.count(1)
        self.wal: WriteAheadLog | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._open = True
        register_sys_tables(self)

        if self.directory is not None:
            self._open_persistent()

    # -- persistence -----------------------------------------------------------------

    def _open_persistent(self) -> None:
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StartupError(f"cannot create database directory: {exc}") from exc
        max_commit = 0
        if database_exists(self.directory):
            max_commit = load_database(self.directory, self.catalog)
            for name in self.catalog.list_tables():
                self.index_manager.attach_table(self.catalog.get(name))
        self.wal = WriteAheadLog(self.directory / "wal.log")
        max_commit = max(max_commit, self._replay_wal())
        self.txn_manager.set_commit_counter(max_commit)

    def _replay_wal(self) -> int:
        records = WriteAheadLog.replay(self.directory / "wal.log")
        max_commit = 0
        for record in records:
            max_commit = max(max_commit, record["commit_id"])
            for op in record["ops"]:
                self._replay_op(op, record["commit_id"])
        return max_commit

    def _replay_op(self, op: dict, commit_id: int) -> None:
        kind = op["op"]
        if kind == "create_table":
            if self.catalog.exists(op["name"]):
                return
            columns = [
                ColumnDef(c["name"], parse_type(c["type"]), c["not_null"])
                for c in op["columns"]
            ]
            table = Table(TableSchema(op["name"], columns, schema=op["schema"]))
            self.on_table_created(table)
            return
        if kind == "drop_table":
            self.on_table_dropped(op["name"])
            self.catalog.drop(op["name"], if_exists=True)
            return
        if kind == "modify":
            if not self.catalog.exists(op["name"]):
                return
            table: Table = self.catalog.get(op["name"])
            current = table.current
            columns = list(current.columns)
            if op.get("deleted"):
                keep = np.ones(current.nrows, dtype=bool)
                doomed = [r for r in op["deleted"] if r < current.nrows]
                keep[np.asarray(doomed, dtype=np.int64)] = False
                columns = [col.filter(keep) for col in columns]
            for bundle in op.get("appends", []):
                extras = []
                for coldef, colmeta in zip(table.schema.columns, bundle):
                    if colmeta["kind"] == "values":
                        extras.append(
                            Column.from_values(coldef.type, colmeta["values"])
                        )
                    else:
                        data = np.frombuffer(
                            colmeta["bytes"], dtype=np.dtype(colmeta["dtype"])
                        ).copy()
                        extras.append(Column(coldef.type, data))
                columns = [col.append(extra) for col, extra in zip(columns, extras)]
            change = "delete" if op.get("deleted") else "append"
            table.install_version(columns, commit_id, change)

    def checkpoint(self) -> None:
        """Write all tables to disk and truncate the WAL."""
        if self.directory is None:
            return
        checkpoint_database(self.directory, self.catalog)
        if self.wal is not None:
            self.wal.truncate()

    # -- commit hooks -------------------------------------------------------------------

    def on_table_created(self, table: Table) -> None:
        """Catalog registration plus index lifecycle attachment."""
        self.catalog.register(table)
        self.index_manager.attach_table(table)
        add_listener = getattr(table, "add_modification_listener", None)
        if add_listener is not None:
            add_listener(self._on_table_modified)

    def _on_table_modified(self, change_kind: str, table: Table) -> None:
        """Eagerly drop cached plans/results touching a modified table."""
        self.plan_cache.invalidate_table(table.schema.name)
        self.result_cache.invalidate_table(table.schema.name)

    def on_table_dropped(self, name: str) -> None:
        self.index_manager.detach_table(name)
        self.plan_cache.invalidate_table(name)
        self.result_cache.invalidate_table(name)

    def after_commit(self, commit_id: int) -> None:
        """Post-commit maintenance: checkpoint when the WAL grows large."""
        if self.wal is not None and self.wal.size > WAL_CHECKPOINT_BYTES:
            self.checkpoint()

    # -- observability ------------------------------------------------------------------

    def stats(self) -> dict:
        """Point-in-time snapshot of engine-wide counters.

        Counts queries served, rows appended/returned/exported, bytes on
        the wire (server mode), and transaction commit/abort totals.
        """
        return self._stats.snapshot()

    def metrics_text(self) -> str:
        """All engine metrics in Prometheus text exposition format.

        Mirrors the server's ``METRICS`` wire command for the embedded
        case; storage totals and session counts are computed on demand.
        """
        return self.metrics.prometheus_text(
            prefix="repro",
            extra_gauges={
                "open_sessions": len(self._sessions),
                "tables": len(self.catalog.list_tables()),
                "storage_bytes": sum(row[7] for row in storage_rows(self)),
                "plan_cache_entries": len(self.plan_cache),
                "plan_cache_bytes": self.plan_cache.bytes,
                "result_cache_entries": len(self.result_cache),
                "result_cache_bytes": self.result_cache.bytes,
            },
        )

    def export_trace(self, fmt: str = "chrome", trace_id: str | None = None,
                     path: str | None = None):
        """Retained spans as a Chrome ``trace_event`` or OTLP-shaped dict.

        ``fmt`` is ``"chrome"`` (loadable in ``chrome://tracing`` / Perfetto)
        or ``"otlp"``; ``trace_id`` filters to one trace; ``path`` also
        writes the JSON document to a file.  Returns the document dict.
        """
        from repro.obs.export import export_spans

        document = export_spans(self.span_tracer.export_dicts(trace_id), fmt)
        if path is not None:
            import json

            Path(path).write_text(json.dumps(document, indent=2))
        return document

    # -- sessions (sys.sessions) --------------------------------------------------------

    def register_session(self, connection) -> int:
        """Assign a session id to a new connection and track it."""
        with self._session_lock:
            session_id = next(self._session_seq)
            self._sessions[session_id] = connection
            return session_id

    def unregister_session(self, session_id: int) -> None:
        with self._session_lock:
            self._sessions.pop(session_id, None)

    def sessions(self) -> list:
        """The currently open connections, in session-id order."""
        with self._session_lock:
            return [self._sessions[sid] for sid in sorted(self._sessions)]

    # -- COPY bookkeeping (sys.copy_history / sys.rejects) ------------------------------

    def record_copy(self, **fields) -> None:
        """Append one finished (or failed) COPY to the history ring."""
        fields.setdefault("started", time.time())
        fields["id"] = next(self._copy_seq)
        self.copy_history.append(fields)

    # -- resources ----------------------------------------------------------------------

    @property
    def thread_pool(self) -> ThreadPoolExecutor:
        """Lazily created worker pool of the morsel executor and COPY."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.config.max_workers,
                thread_name_prefix="repro-mal",
            )
        return self._pool

    def connect(self):
        """Create a new dummy-client connection (``monetdb_connect``)."""
        from repro.core.connection import Connection

        if not self._open:
            raise StartupError("database has been shut down")
        return Connection(self)

    def shutdown(self) -> None:
        """In-process shutdown: persist, then free *everything*.

        The paper (section 3.4, "Garbage Collection") stresses that an
        embedded database cannot rely on process exit for cleanup; all
        state must be reset so the process can start a fresh database.
        """
        global _active
        with self._shutdown_lock:
            if not self._open:
                return  # concurrent caller already tore everything down
            # refuse new work first, then drain the pool: in-flight chunk
            # and morsel tasks may still be reading table versions that the
            # teardown below frees — shutdown(wait=False) raced them
            self._open = False
            pool, self._pool = self._pool, None
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
            if self.directory is not None:
                self.checkpoint()
                if self.wal is not None:
                    self.wal.close()
            self._teardown()
        with _instance_lock:
            if _active is self:
                _active = None

    def _teardown(self) -> None:
        self.index_manager.clear()
        self.catalog.clear()
        self.query_log.clear()
        self.span_tracer.clear()
        self.plan_cache.clear()
        self.result_cache.clear()
        self.copy_history.clear()
        self.copy_rejects.clear()
        with self._session_lock:
            self._sessions.clear()
