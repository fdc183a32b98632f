"""Connections: dummy clients holding a query context (paper section 3.2).

*"In MonetDBLite [...] these connections are dummy clients that only hold a
query context and can be used to query the database. Multiple connections
can be created for a single database instance [for] inter-query parallelism
[...] and they provide transaction isolation between them."*

A connection runs in autocommit mode until ``BEGIN``; each autocommit
statement gets its own transaction.  ``monetdb_append`` maps to
:meth:`Connection.append`, the zero-parsing bulk-insert path.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace

import numpy as np

from repro.algebra import expr as E
from repro.algebra import nodes as N
from repro.algebra.binder import Binder, Scope, bind_statement
from repro.algebra.optimizer import estimate_rows, optimize
from repro.algebra.render import render_plan
from repro.cache import (
    PreparedStatement,
    normalize_sql,
    param_count,
    referenced_tables,
    substitute_params,
)
from repro.cache.plan_cache import PlanCacheEntry
from repro.errors import CatalogError, InterfaceError, TransactionError
from repro.core.result import Result
from repro.mal.codegen import compile_select
from repro.mal.interpreter import ExecutionContext, Interpreter, MaterializedResult
from repro.mal.vector_eval import eval_pred, eval_value
from repro.mal.vectors import vec_from_column, vec_to_column
from repro.obs import QueryTrace
from repro.obs.spans import Span, new_span_id, new_trace_id, render_tree
from repro.sql import ast
from repro.sql.parser import parse
from repro.storage import types as T
from repro.storage.column import Column
from repro.txn.transaction import Transaction

__all__ = ["Connection"]


class Connection:
    """One isolated query context over the embedded database."""

    def __init__(self, database):
        self._database = database
        self._txn: Transaction | None = None
        self._open = True
        #: named prepared statements of this session (sys.prepared)
        self._prepared: dict[str, PreparedStatement] = {}
        self._prepared_seq = itertools.count(1)
        # -- session identity and counters (surfaced by sys.sessions) --
        self.client = "embedded"
        self.session_started = time.time()
        self.session_queries = 0
        self.session_rows = 0
        self.last_sql: str | None = None
        self.session_id = database.register_session(self)
        # -- span identity: every statement of this session shares one
        # trace, rooted in a session span recorded at close() --
        self._session_trace_id = new_trace_id()
        self._session_span_id = new_span_id()
        self._session_start_ns = time.perf_counter_ns()

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        """Disconnect; an open transaction is rolled back."""
        if self._txn is not None and self._txn.active:
            self._database.txn_manager.rollback(self._txn)
        self._txn = None
        self._prepared.clear()
        if self._open:
            self._database.unregister_session(self.session_id)
            tracer = getattr(self._database, "span_tracer", None)
            if tracer is not None and tracer.enabled:
                tracer.record_span(Span(
                    self._session_trace_id, self._session_span_id, None,
                    f"session:{self.client}", "session", self.session_id,
                    self._session_start_ns,
                    end_ns=time.perf_counter_ns(),
                    attrs={
                        "queries": self.session_queries,
                        "rows": self.session_rows,
                    },
                ))
        self._open = False

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_open(self) -> None:
        if not self._open:
            raise InterfaceError("connection is closed")

    # -- transaction control ------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None and self._txn.active

    def begin(self) -> None:
        self._check_open()
        if self.in_transaction:
            raise TransactionError("transaction already in progress")
        self._txn = self._database.txn_manager.begin()

    def commit(self) -> None:
        self._check_open()
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        try:
            self._database.txn_manager.commit(self._txn)
        finally:
            self._txn = None

    def rollback(self) -> None:
        self._check_open()
        if not self.in_transaction:
            raise TransactionError("no transaction in progress")
        self._database.txn_manager.rollback(self._txn)
        self._txn = None

    def _statement_txn(self):
        """(transaction, is_autocommit) for one statement."""
        if self.in_transaction:
            txn = self._txn
        else:
            txn = self._database.txn_manager.begin()
        # invalidate the txn's per-statement cache of virtual sys.* tables
        txn.statement_seq += 1
        return txn, txn is not self._txn

    # -- query execution ------------------------------------------------------------------

    def execute(self, sql: str, params=None, copy_data=None) -> Result | None:
        """Run SQL (``monetdb_query``); returns the last statement's result.

        ``params`` supplies values for ``?``/``$n`` placeholders; it is
        only valid with a single statement.  ``copy_data`` supplies the
        input of a ``COPY INTO ... FROM STDIN`` as bytes, text, or a
        file-like object.
        """
        self._check_open()
        result: Result | None = None
        parse_start = time.perf_counter_ns()
        statements = parse(sql)
        parse_ns = time.perf_counter_ns() - parse_start
        if params is not None and len(statements) != 1:
            raise InterfaceError(
                "parameter values require exactly one statement"
            )
        if copy_data is not None and len(statements) != 1:
            raise InterfaceError("COPY data requires exactly one statement")
        for statement in statements:
            result = self._execute_statement(statement, sql, parse_ns,
                                             params=params,
                                             copy_data=copy_data)
            parse_ns = 0  # the batch's parse cost is charged to its first statement
        return result

    def query(self, sql: str) -> Result:
        """Like :meth:`execute` but requires a result-producing statement."""
        result = self.execute(sql)
        if result is None:
            raise InterfaceError("statement produced no result")
        return result

    def _execute_statement(
        self, statement, sql: str = "", parse_ns: int = 0, params=None,
        copy_data=None,
    ) -> Result | None:
        self._stats_incr("statements")
        if isinstance(statement, ast.TransactionStmt):
            action = statement.action
            if action == "begin":
                self.begin()
            elif action == "commit":
                self.commit()
            else:
                self.rollback()
            return None
        if isinstance(statement, ast.ExplainStmt):
            return self._execute_explain(statement, sql, parse_ns)
        if isinstance(statement, ast.PrepareStmt):
            self._do_prepare(statement)
            return None
        if isinstance(statement, ast.DeallocateStmt):
            self.deallocate(statement.name)
            return None
        if isinstance(statement, ast.ExecuteStmt):
            try:
                values = tuple(
                    self._eval_execute_arg(a) for a in statement.args
                )
                return self._run_prepared_named(
                    statement.name.lower(), values, sql, parse_ns
                )
            except Exception:
                # execution-path errors have already rolled back (and
                # cleared an explicit txn); pre-execution errors (unknown
                # name, arity, non-constant args) abort an explicit txn
                # here, per the usual error-aborts-transaction rule
                if self.in_transaction:
                    self._database.txn_manager.rollback(self._txn)
                    self._txn = None
                raise

        if isinstance(statement, (ast.SelectStmt, ast.SetOpStmt)):
            return self._execute_select_statement(
                statement, sql, parse_ns, params=params
            )
        if params is not None and param_count(statement):
            # parametrized DML re-binds per execution with the values
            # substituted as literals (only SELECT plans carry live
            # Param nodes into the compiled program)
            statement = substitute_params(statement, tuple(params))
        return self._execute_generic(statement, sql, parse_ns,
                                     copy_data=copy_data)

    def _execute_generic(
        self, statement, sql: str = "", parse_ns: int = 0, copy_data=None
    ) -> Result | None:
        phases = {"parse": parse_ns} if parse_ns else {}
        started_wall = time.time()
        # back-date so total_us covers the parse phase charged to us
        started = time.perf_counter_ns() - parse_ns
        spans = self._begin_spans(sql, parse_ns)
        txn, autocommit = self._statement_txn()
        try:
            bind_start = time.perf_counter_ns()
            bound = bind_statement(
                statement, lambda name: txn.resolve_table(name).schema
            )
            bind_done = time.perf_counter_ns()
            phases["bind"] = bind_done - bind_start
            if spans is not None:
                spans.record("bind", "phase", bind_start, bind_done)
            result = self._dispatch(bound, txn, phases, copy_data=copy_data,
                                    spans=spans)
            if autocommit:
                self._database.txn_manager.commit(txn)
            self._log_statement(sql, "ok", None, result, started_wall,
                                started, phases)
            if spans is not None:
                spans.finish(
                    "ok", rows=result.nrows if result is not None else 0
                )
            return result
        except Exception as exc:
            if autocommit:
                self._database.txn_manager.rollback(txn)
            else:
                # an error inside an explicit transaction aborts it
                self._database.txn_manager.rollback(txn)
                self._txn = None
            self._stats_incr("query_errors")
            self._log_statement(sql, "error", str(exc), None, started_wall,
                                started, phases)
            if spans is not None:
                spans.finish("error", error=str(exc))
            raise

    # -- cached SELECT path ---------------------------------------------------------

    def _select_cache_deps(self, statement, txn):
        """(deps, cacheable) for a SELECT under ``txn``.

        ``deps`` is a sorted tuple of (normalized name, Table, pinned
        committed version).  Statements touching virtual sys.* views or
        tables created inside the current transaction are not cacheable.
        """
        cacheable = True
        deps = []
        for name in sorted(referenced_tables(statement)):
            table = txn.resolve_table(name)
            if getattr(table, "is_virtual", False):
                cacheable = False
                continue
            key = txn._norm(name)
            if key in txn._created:
                cacheable = False
                continue
            deps.append((key, table, txn.snapshot_version(table).version))
        return tuple(deps), cacheable

    def _execute_select_statement(
        self, statement, sql: str = "", parse_ns: int = 0, params=None
    ) -> Result:
        """Run one SELECT through the plan/result caches.

        A warm plan hit skips bind/optimize/compile (those phase timings
        stay absent, rendering as 0 in ``sys.queries``); a result hit also
        skips execution and serves the stored materialized result.
        """
        database = self._database
        phases = {"parse": parse_ns} if parse_ns else {}
        started_wall = time.time()
        started = time.perf_counter_ns() - parse_ns
        spans = self._begin_spans(sql, parse_ns)
        txn, autocommit = self._statement_txn()
        cache_status = ""
        try:
            deps, cacheable = self._select_cache_deps(statement, txn)
            values = tuple(params) if params is not None else None

            result_key = None
            if (
                cacheable
                and database.config.result_cache
                and database.result_cache.enabled
                and all(
                    key not in txn._deltas or txn._deltas[key].empty
                    for key, _, _ in deps
                )
            ):
                # versions are part of the key: a committed write to any
                # referenced table makes older entries unreachable
                candidate = (
                    statement,
                    values,
                    tuple((key, id(t), v) for key, t, v in deps),
                )
                try:
                    hash(candidate)
                    result_key = candidate
                except TypeError:
                    result_key = None

            materialized = None
            if result_key is not None:
                materialized = database.result_cache.lookup(result_key)
                if materialized is not None:
                    cache_status = "result"

            if materialized is None:
                entry = (
                    database.plan_cache.lookup(statement, txn)
                    if cacheable
                    else None
                )
                if entry is not None:
                    program = entry.program
                    cache_status = "plan"
                    if spans is not None:
                        spans.rows_estimate = entry.rows_estimate
                else:
                    bind_start = time.perf_counter_ns()
                    bound = bind_statement(
                        statement, lambda name: txn.resolve_table(name).schema
                    )
                    optimize_start = time.perf_counter_ns()
                    optimized = optimize(bound, self._nrows_estimator(txn))
                    compile_start = time.perf_counter_ns()
                    program = compile_select(optimized)
                    done = time.perf_counter_ns()
                    phases["bind"] = optimize_start - bind_start
                    phases["optimize"] = compile_start - optimize_start
                    phases["compile"] = done - compile_start
                    rows_estimate = int(estimate_rows(
                        optimized.plan, self._nrows_estimator(txn)
                    ))
                    if spans is not None:
                        spans.record("bind", "phase", bind_start,
                                     optimize_start)
                        spans.record("optimize", "phase", optimize_start,
                                     compile_start)
                        spans.record("compile", "phase", compile_start, done)
                        spans.rows_estimate = rows_estimate
                    if cacheable:
                        database.plan_cache.store(
                            statement,
                            PlanCacheEntry(
                                program, deps, rows_estimate=rows_estimate
                            ),
                        )
                ctx = ExecutionContext(
                    database, txn, database.config, phases=phases,
                    params=values, spans=spans,
                )
                materialized = Interpreter(ctx).run(program)
                if result_key is not None:
                    database.result_cache.store(
                        result_key, materialized, [t for _, t, _ in deps]
                    )

            self._stats_incr("queries")
            self._stats_incr("rows_returned", materialized.nrows)
            result = Result(materialized, self._stats())
            if autocommit:
                database.txn_manager.commit(txn)
            self._log_statement(sql, "ok", None, result, started_wall,
                                started, phases, cache=cache_status)
            if spans is not None:
                spans.finish("ok", rows=materialized.nrows,
                             cache=cache_status)
            return result
        except Exception as exc:
            database.txn_manager.rollback(txn)
            if not autocommit:
                self._txn = None
            self._stats_incr("query_errors")
            self._log_statement(sql, "error", str(exc), None, started_wall,
                                started, phases, cache=cache_status)
            if spans is not None:
                spans.finish("error", error=str(exc), cache=cache_status)
            raise

    # -- prepared statements --------------------------------------------------------

    def prepare(self, sql: str, name: str | None = None) -> PreparedStatement:
        """Prepare one statement with ``?``/``$n`` placeholders.

        Returns a :class:`~repro.cache.PreparedStatement` handle; pass
        ``name`` to make it addressable from SQL ``EXECUTE`` too.
        """
        self._check_open()
        statements = parse(sql)
        if len(statements) != 1:
            raise InterfaceError("prepare() takes exactly one statement")
        statement = statements[0]
        if isinstance(statement, ast.PrepareStmt):
            if name is not None:
                statement = ast.PrepareStmt(
                    name, statement.statement, statement.sql
                )
            return self._do_prepare(statement)
        if isinstance(
            statement,
            (ast.ExecuteStmt, ast.DeallocateStmt, ast.TransactionStmt,
             ast.ExplainStmt),
        ):
            raise InterfaceError("cannot prepare this statement kind")
        if name is None:
            name = f"ps{next(self._prepared_seq)}"
        return self._do_prepare(
            ast.PrepareStmt(name, statement, normalize_sql(sql))
        )

    def _do_prepare(self, statement: ast.PrepareStmt) -> PreparedStatement:
        """Register a parsed PREPARE; binding is deferred to first EXECUTE."""
        key = statement.name.lower()
        if key in self._prepared:
            raise InterfaceError(
                f"prepared statement {key!r} already exists"
            )
        prepared = PreparedStatement(
            self,
            key,
            statement.statement,
            statement.sql or normalize_sql(statement.sql),
            param_count(statement.statement),
        )
        self._prepared[key] = prepared
        self._stats_incr("prepared_statements")
        return prepared

    def execute_prepared(self, name: str, params=()) -> Result | None:
        """Run a prepared statement by name with parameter values."""
        self._check_open()
        self._stats_incr("statements")
        try:
            return self._run_prepared_named(
                str(name).lower(), tuple(params), f"EXECUTE {name}", 0
            )
        except Exception:
            if self.in_transaction:
                self._database.txn_manager.rollback(self._txn)
                self._txn = None
            raise

    def deallocate(self, name: str) -> None:
        """Drop a prepared statement (SQL ``DEALLOCATE``)."""
        key = str(name).lower()
        if self._prepared.pop(key, None) is None:
            raise InterfaceError(
                f"prepared statement {key!r} does not exist"
            )

    def prepared_statements(self) -> list:
        """This session's prepared statements (surfaced by sys.prepared)."""
        return [self._prepared[key] for key in sorted(self._prepared)]

    def _run_prepared_named(
        self, name: str, values: tuple, sql: str, parse_ns: int
    ) -> Result | None:
        prepared = self._prepared.get(name)
        if prepared is None:
            raise InterfaceError(
                f"prepared statement {name!r} does not exist"
            )
        if len(values) != prepared.nparams:
            raise InterfaceError(
                f"prepared statement {name!r} takes {prepared.nparams} "
                f"parameter(s), {len(values)} given"
            )
        prepared.executions += 1
        self._stats_incr("prepared_executions")
        inner = prepared.statement
        if isinstance(inner, (ast.SelectStmt, ast.SetOpStmt)):
            return self._execute_select_statement(
                inner, sql, parse_ns, params=values
            )
        if prepared.nparams:
            inner = substitute_params(inner, values)
        return self._execute_generic(inner, sql, parse_ns)

    def _eval_execute_arg(self, expression):
        """Evaluate one EXECUTE argument to a Python value."""

        def no_tables(name):
            raise InterfaceError("EXECUTE arguments must be constants")

        try:
            bound = Binder(no_tables)._bind_expr(expression, Scope())
        except InterfaceError:
            raise
        except Exception as exc:
            raise InterfaceError(
                f"EXECUTE arguments must be constants: {exc}"
            ) from exc
        if not isinstance(bound, E.Const):
            raise InterfaceError("EXECUTE arguments must be constants")
        if bound.value is None:
            return None
        if bound.type.category == T.TypeCategory.STRING:
            return bound.value
        return bound.type.from_storage(bound.value)

    def _begin_spans(self, sql: str, parse_ns: int, force: bool = False):
        """Open a statement span handle, or None when tracing is off.

        Statements share the session's trace id (one connection = one
        trace) unless a wire context propagated from a client overrides
        it inside the tracer.
        """
        tracer = getattr(self._database, "span_tracer", None)
        if tracer is None:
            return None
        return tracer.statement(
            session=self.session_id,
            sql=sql,
            parse_ns=parse_ns,
            trace_id=self._session_trace_id,
            parent_id=self._session_span_id,
            force=force,
        )

    def _log_statement(
        self, sql, status, error, result, started_wall, started_ns, phases,
        cache: str = "",
    ) -> None:
        """Record one statement in the query log, histogram, and session."""
        total_ns = time.perf_counter_ns() - started_ns
        rows = result.nrows if result is not None else 0
        self.session_queries += 1
        self.session_rows += rows
        self.last_sql = sql or None
        database = self._database
        log = getattr(database, "query_log", None)
        if log is None:
            return
        entry = log.record(
            session=self.session_id,
            sql=sql,
            status=status,
            error=error,
            rows=rows,
            started=started_wall,
            total_us=total_ns / 1000.0,
            phases_us={name: ns / 1000.0 for name, ns in phases.items()},
            cache=cache,
        )
        if entry.is_slow:
            self._stats_incr("slow_queries")
        database.metrics.observe("query_seconds", total_ns * 1e-9)

    def _stats(self):
        return getattr(self._database, "_stats", None)

    def _stats_incr(self, name: str, amount: int = 1) -> None:
        stats = self._stats()
        if stats is not None:
            stats.incr(name, amount)

    def _dispatch(self, bound, txn, phases=None, copy_data=None,
                  spans=None) -> Result | None:
        if isinstance(bound, N.BoundSelect):
            return Result(
                self._run_select(bound, txn, phases=phases, spans=spans),
                self._stats(),
            )
        if isinstance(bound, N.BoundCopyFrom):
            return self._run_copy_from(bound, txn, phases, copy_data,
                                       spans=spans)
        if isinstance(bound, N.BoundCopyTo):
            return self._run_copy_to(bound, txn, phases, spans=spans)
        if isinstance(bound, N.BoundInsert):
            self._run_insert(bound, txn)
            return None
        if isinstance(bound, N.BoundDelete):
            self._run_delete(bound, txn)
            return None
        if isinstance(bound, N.BoundUpdate):
            self._run_update(bound, txn)
            return None
        if isinstance(bound, N.BoundCreateTable):
            txn.create_table(bound.schema, bound.if_not_exists)
            return None
        if isinstance(bound, N.BoundDropTable):
            txn.drop_table(bound.name, bound.if_exists)
            return None
        if isinstance(bound, N.BoundCreateIndex):
            self._run_create_index(bound, txn)
            return None
        if isinstance(bound, N.BoundDropIndex):
            self._database.index_manager.drop_order_index(bound.name)
            return None
        raise InterfaceError(f"cannot execute {type(bound).__name__}")

    def _run_select(self, bound: N.BoundSelect, txn, trace=None, phases=None,
                    spans=None):
        optimize_start = time.perf_counter_ns()
        optimized = optimize(bound, self._nrows_estimator(txn))
        compile_start = time.perf_counter_ns()
        program = compile_select(optimized)
        done = time.perf_counter_ns()
        if phases is not None:
            phases["optimize"] = (
                phases.get("optimize", 0) + compile_start - optimize_start
            )
            phases["compile"] = phases.get("compile", 0) + done - compile_start
        if spans is not None:
            spans.record("optimize", "phase", optimize_start, compile_start)
            spans.record("compile", "phase", compile_start, done)
            if spans.rows_estimate is None:
                spans.rows_estimate = int(
                    estimate_rows(optimized.plan, self._nrows_estimator(txn))
                )
        ctx = ExecutionContext(
            self._database, txn, self._database.config, trace=trace,
            phases=phases, spans=spans,
        )
        result = Interpreter(ctx).run(program)
        self._stats_incr("queries")
        self._stats_incr("rows_returned", result.nrows)
        return result

    @staticmethod
    def _nrows_estimator(txn):
        """Cardinality source for the optimizer: the txn's pinned snapshot
        (which also statement-caches virtual sys.* materializations)."""
        return lambda name: txn.snapshot_version(txn.resolve_table(name)).nrows

    # -- EXPLAIN [ANALYZE] ------------------------------------------------------------

    def _execute_explain(self, statement, sql: str = "",
                         parse_ns: int = 0) -> Result:
        """Run ``EXPLAIN [ANALYZE] <select>``; one-column text result.

        ``EXPLAIN ANALYZE`` always records a full span tree (forced deep
        tracing, even when ``trace_spans`` is off) and renders it with
        per-span total and self time; the spans enter the tracer's ring
        buffer only when tracing is enabled.
        """
        inner = statement.statement
        spans = (
            self._begin_spans(sql, parse_ns, force=True)
            if statement.analyze else None
        )
        txn, autocommit = self._statement_txn()
        try:
            bind_start = time.perf_counter_ns()
            bound = bind_statement(
                inner, lambda name: txn.resolve_table(name).schema
            )
            bind_done = time.perf_counter_ns()
            if not isinstance(bound, N.BoundSelect):
                raise InterfaceError("EXPLAIN only supports SELECT statements")
            if spans is not None:
                spans.record("bind", "phase", bind_start, bind_done)
            optimize_start = time.perf_counter_ns()
            optimized = optimize(bound, self._nrows_estimator(txn))
            compile_start = time.perf_counter_ns()
            program = compile_select(optimized)
            compile_done = time.perf_counter_ns()
            if statement.analyze:
                spans.record("optimize", "phase",
                             optimize_start, compile_start)
                spans.record("compile", "phase", compile_start, compile_done)
                spans.rows_estimate = int(estimate_rows(
                    optimized.plan, self._nrows_estimator(txn)
                ))
                ctx = ExecutionContext(
                    self._database, txn, self._database.config,
                    phases={}, spans=spans,
                )
                materialized = Interpreter(ctx).run(program)
                spans.finish("ok", rows=materialized.nrows)
                tracer = self._database.span_tracer
                dicts = [s.to_dict(tracer.epoch_of) for s in spans.spans]
                lines = render_tree(dicts).split("\n")
                lines.append("")
                lines.append(
                    f"total: {dicts[0]['duration_us']:.1f} us, "
                    f"{len(program.instructions)} instructions, "
                    f"{materialized.nrows} result rows"
                )
                self._stats_incr("traced_queries")
            else:
                from repro.exec.fragments import render_fragments

                lines = render_plan(optimized.plan).split("\n")
                lines.append("")
                lines.extend(program.render().split("\n"))
                lines.append("")
                lines.extend(render_fragments(program))
            if autocommit:
                self._database.txn_manager.commit(txn)
        except Exception as exc:
            if spans is not None:
                spans.finish("error", error=str(exc))
            self._database.txn_manager.rollback(txn)
            if not autocommit:
                self._txn = None
            raise
        column = Column.from_values(T.STRING, lines)
        return Result(
            MaterializedResult(["explain"], [column]), self._stats()
        )

    def explain(self, sql: str) -> str:
        """The compiled MAL program listing for a SELECT (debugging aid)."""
        self._check_open()
        statements = parse(sql)
        if len(statements) != 1:
            raise InterfaceError("EXPLAIN takes exactly one statement")
        txn, autocommit = self._statement_txn()
        try:
            bound = bind_statement(
                statements[0], lambda name: txn.resolve_table(name).schema
            )
            if not isinstance(bound, N.BoundSelect):
                raise InterfaceError("EXPLAIN only supports SELECT")
            optimized = optimize(bound, self._nrows_estimator(txn))
            rendered = compile_select(optimized).render()
            if autocommit:
                self._database.txn_manager.rollback(txn)
            return rendered
        except Exception:
            self._database.txn_manager.rollback(txn)
            if not autocommit:
                self._txn = None
            raise

    def trace_query(self, sql: str):
        """Execute one SELECT with tracing on; returns ``(Result, QueryTrace)``.

        The programmatic face of ``EXPLAIN ANALYZE``: same instrumentation,
        but the caller gets both the materialized result and the structured
        :class:`~repro.obs.QueryTrace` instead of a rendered text table.
        """
        self._check_open()
        statements = parse(sql)
        if len(statements) != 1:
            raise InterfaceError("trace_query takes exactly one statement")
        txn, autocommit = self._statement_txn()
        try:
            bound = bind_statement(
                statements[0], lambda name: txn.resolve_table(name).schema
            )
            if not isinstance(bound, N.BoundSelect):
                raise InterfaceError("trace_query only supports SELECT")
            trace = QueryTrace(sql=sql)
            materialized = self._run_select(bound, txn, trace=trace)
            self._stats_incr("traced_queries")
            if autocommit:
                self._database.txn_manager.commit(txn)
            return Result(materialized, self._stats()), trace
        except Exception:
            if autocommit:
                self._database.txn_manager.rollback(txn)
            else:
                self._database.txn_manager.rollback(txn)
                self._txn = None
            raise

    # -- DML ----------------------------------------------------------------------------------

    def _run_insert(self, bound: N.BoundInsert, txn) -> int:
        table = txn.resolve_table(bound.table_name)
        schema = table.schema
        if bound.select is not None:
            materialized = self._run_select(bound.select, txn)
            source = {
                idx: materialized.columns[i]
                for i, idx in enumerate(bound.column_indexes)
            }
            nrows = materialized.nrows
        else:
            source = {}
            nrows = len(bound.rows)
            for pos, idx in enumerate(bound.column_indexes):
                coldef = schema.columns[idx]
                values = [row[pos] for row in bound.rows]
                source[idx] = Column.from_values(coldef.type, values)
        bundle = []
        for idx, coldef in enumerate(schema.columns):
            if idx in source:
                column = source[idx]
                same_string = (
                    column.type.category == coldef.type.category
                    and column.type.is_variable
                )
                if column.type != coldef.type and not same_string:
                    column = _convert_column(column, coldef.type, nrows)
                bundle.append(column)
            else:
                bundle.append(Column.from_values(coldef.type, [None] * nrows))
        txn.append(table, bundle)
        self._stats_incr("rows_appended", nrows)
        return nrows

    def _run_delete(self, bound: N.BoundDelete, txn) -> int:
        table = txn.resolve_table(bound.table_name)
        view = txn.read_version(table)
        if bound.predicate is None:
            ids = np.arange(view.nrows, dtype=np.int64)
        else:
            ctx = ExecutionContext(self._database, txn, self._database.config)
            inputs = [vec_from_column(c) for c in view.columns]
            mask = eval_pred(bound.predicate, inputs, ctx).definite()
            ids = np.flatnonzero(mask)
        if len(ids):
            txn.delete_rows(table, ids)
        return len(ids)

    def _run_update(self, bound: N.BoundUpdate, txn) -> int:
        table = txn.resolve_table(bound.table_name)
        view = txn.read_version(table)
        ctx = ExecutionContext(self._database, txn, self._database.config)
        inputs = [vec_from_column(c) for c in view.columns]
        if bound.predicate is None:
            ids = np.arange(view.nrows, dtype=np.int64)
        else:
            mask = eval_pred(bound.predicate, inputs, ctx).definite()
            ids = np.flatnonzero(mask)
        if not len(ids):
            return 0
        matched = [vec.take(ids) for vec in inputs]
        assigned = dict(bound.assignments)
        bundle = []
        for idx, coldef in enumerate(table.schema.columns):
            if idx in assigned:
                value = eval_value(assigned[idx], matched, ctx)
                bundle.append(vec_to_column(value, len(ids)))
            else:
                column = view.columns[idx]
                bundle.append(column.take(ids))
        txn.delete_rows(table, ids)
        txn.append(table, bundle)
        return len(ids)

    def _run_create_index(self, bound: N.BoundCreateIndex, txn) -> None:
        table = txn.resolve_table(bound.table_name)
        if getattr(table, "is_virtual", False):
            raise CatalogError(
                f"cannot index {bound.table_name!r}: system views are "
                f"regenerated on every scan"
            )
        if len(bound.columns) != 1:
            raise CatalogError("indexes cover exactly one column")
        colpos = table.schema.column_index(bound.columns[0])
        manager = self._database.index_manager
        if bound.ordered:
            manager.create_order_index(bound.name, table, table.current, colpos)
        else:
            manager.hash_for(table, table.current, colpos)

    # -- COPY bulk load / export -------------------------------------------------------------------

    def _run_copy_from(self, bound, txn, phases=None, copy_data=None,
                       spans=None) -> Result:
        """Execute COPY INTO ... FROM (or CREATE TABLE ... FROM).

        The load goes through :func:`repro.copy.load_into`, so it lands on
        the ordinary transactional append path; a failure rolls the whole
        statement back via the caller's error handling.
        """
        from repro.copy import infer_schema, load_into

        database = self._database
        options = bound.options
        if isinstance(copy_data, str):
            copy_data = copy_data.encode("utf-8")
        source = bound.path if bound.path is not None else copy_data
        if source is None:
            raise InterfaceError(
                "COPY FROM STDIN requires data (execute(..., copy_data=...))"
            )
        started = time.perf_counter_ns()
        target = bound.table_name
        try:
            if bound.create_name is not None:
                schema, header = infer_schema(
                    bound.create_name, source, options
                )
                target = bound.create_name
                table = txn.create_table(schema, bound.if_not_exists)
                column_indexes = list(range(len(schema.columns)))
                options = replace(options, header=header)
            else:
                table = txn.resolve_table(bound.table_name)
                column_indexes = bound.column_indexes
            exec_span = (
                spans.begin("execute", "phase") if spans is not None else None
            )
            try:
                load = load_into(
                    database,
                    txn,
                    table,
                    source,
                    options,
                    column_indexes=column_indexes,
                    chunk_bytes=database.config.copy_chunk_bytes,
                    spans=spans if spans is not None and spans.deep else None,
                )
            except BaseException:
                if exec_span is not None:
                    spans.end(exec_span, status="error")
                raise
            if exec_span is not None:
                spans.end(exec_span, rows_out=load.rows_loaded,
                          bytes=load.bytes_read)
            total_us = (time.perf_counter_ns() - started) / 1000.0
            if phases is not None:
                phases["execute"] = time.perf_counter_ns() - started
            database.metrics.incr("copy_rows_loaded", load.rows_loaded)
            database.metrics.incr("copy_rows_rejected", len(load.rejects))
            database.metrics.incr("copy_bytes_read", load.bytes_read)
            database.copy_rejects = load.rejects
            database.record_copy(
                direction="in",
                table_name=target,
                source=bound.path or "<stream>",
                rows=load.rows_loaded,
                rejected=len(load.rejects),
                nbytes=load.bytes_read,
                total_us=total_us,
                status="ok",
                error="",
            )
            self._stats_incr("rows_appended", load.rows_loaded)
            column = Column.from_values(T.BIGINT, [load.rows_loaded])
            return Result(
                MaterializedResult(["rows_loaded"], [column]), self._stats()
            )
        except Exception as exc:
            database.record_copy(
                direction="in",
                table_name=target or "?",
                source=bound.path or "<stream>",
                rows=0,
                rejected=0,
                nbytes=0,
                total_us=(time.perf_counter_ns() - started) / 1000.0,
                status="error",
                error=str(exc),
            )
            raise

    def _run_copy_to(self, bound, txn, phases=None, spans=None) -> Result:
        """Execute COPY ... TO: export a table or query result as CSV."""
        from repro.copy import export_csv

        database = self._database
        started = time.perf_counter_ns()
        try:
            if bound.select is not None:
                materialized = self._run_select(bound.select, txn,
                                                phases=phases, spans=spans)
                names = materialized.names
                columns = materialized.columns
            else:
                table = txn.resolve_table(bound.table_name)
                view = txn.read_version(table)
                names = [c.name for c in table.schema.columns]
                columns = view.columns
            nrows, nbytes, text = export_csv(
                names, columns, bound.options, bound.path
            )
            total_us = (time.perf_counter_ns() - started) / 1000.0
            if phases is not None and "execute" not in phases:
                phases["execute"] = time.perf_counter_ns() - started
            database.metrics.incr("copy_bytes_written", nbytes)
            self._stats_incr("rows_exported", nrows)
            database.record_copy(
                direction="out",
                table_name=bound.table_name or "<query>",
                source=bound.path or "<stdout>",
                rows=nrows,
                rejected=0,
                nbytes=nbytes,
                total_us=total_us,
                status="ok",
                error="",
            )
            column = Column.from_values(T.BIGINT, [nrows])
            result = Result(
                MaterializedResult(["rows_exported"], [column]), self._stats()
            )
            result.copy_text = text
            return result
        except Exception as exc:
            database.record_copy(
                direction="out",
                table_name=bound.table_name or "<query>",
                source=bound.path or "<stdout>",
                rows=0,
                rejected=0,
                nbytes=0,
                total_us=(time.perf_counter_ns() - started) / 1000.0,
                status="error",
                error=str(exc),
            )
            raise

    # -- bulk append (``monetdb_append``) ----------------------------------------------------------

    def append(self, table_name: str, data) -> int:
        """Bulk-append columnar data, bypassing SQL parsing entirely.

        Paper section 3.2: *"there is significant overhead involved in
        parsing individual INSERT INTO statements, which becomes a
        bottleneck when the user wants to insert a large amount of data."*

        ``data`` is a mapping of column name to NumPy array (or list); all
        schema columns must be present.  Arrays whose dtype already matches
        the storage dtype are adopted without conversion or copy.
        """
        self._check_open()
        txn, autocommit = self._statement_txn()
        try:
            table = txn.resolve_table(table_name)
            schema = table.schema
            lowered = {str(k).lower(): v for k, v in data.items()}
            bundle = []
            nrows = None
            for coldef in schema.columns:
                if coldef.name.lower() not in lowered:
                    raise CatalogError(
                        f"append to {table_name}: missing column {coldef.name!r}"
                    )
                raw = lowered[coldef.name.lower()]
                if isinstance(raw, np.ndarray):
                    column = Column.from_numpy(coldef.type, raw)
                else:
                    column = Column.from_values(coldef.type, raw)
                if nrows is None:
                    nrows = len(column)
                elif len(column) != nrows:
                    raise CatalogError("append columns have differing lengths")
                bundle.append(column)
            txn.append(table, bundle)
            if autocommit:
                self._database.txn_manager.commit(txn)
            self._stats_incr("rows_appended", nrows or 0)
            return nrows or 0
        except Exception:
            # same rule as execute(): a failed statement aborts its
            # transaction — implicit or explicit — so no transaction
            # lingers pinning an old snapshot
            self._database.txn_manager.rollback(txn)
            if not autocommit:
                self._txn = None
            raise


def _convert_column(column: Column, target, nrows: int) -> Column:
    """Cast a result column into the target column type for INSERT-SELECT."""
    from repro.mal.vector_eval import _cast_vec

    vec = _cast_vec(vec_from_column(column), target, nrows)
    return vec_to_column(vec, nrows)
