"""MAL program interpreter: column-at-a-time execution with tactical choices.

The interpreter walks the straight-line program, holding every intermediate
as a whole column in memory (paper section 3.1).  Tactical, execution-time
decisions (the paper's third optimization level) happen here:

* simple range/point conjuncts over persistent columns consult the index
  manager — an exact ORDER INDEX lookup if one exists, otherwise an
  automatically built imprint that prunes blocks before the predicate is
  verified;
* equi-joins probe an automatically built (and append-maintained) hash
  index when the build side is a bare persistent column, use a merge join
  when both sides carry order indexes, and otherwise fall back to the
  vectorized sort-merge kernel;
* group-bys reuse the hash index's precomputed group ids when grouping a
  bare persistent column.

With ``parallel=True`` the program's pipeline fragment — the
parallelizable instructions over one base table — is handed to the morsel
executor (:mod:`repro.exec`) before the loop runs; the interpreter then
executes only the sequential remainder.  This is the "mitosis" of paper
Figure 2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.algebra import expr as E
from repro.errors import DatabaseError, QueryTimeoutError
from repro.mal import operators as ops
from repro.mal.codegen import compile_select
from repro.mal.program import MALProgram
from repro.mal.vector_eval import eval_pred, eval_value
from repro.mal.vectors import BoolVec, V, vec_from_column, vec_to_column
from repro.obs.trace import cardinality, instruction_inputs, value_nbytes
from repro.storage import types as T
from repro.storage.column import Column

__all__ = [
    "ExecutionConfig",
    "ExecutionContext",
    "Interpreter",
    "MaterializedResult",
    "param_to_storage",
]


def param_to_storage(value, sqltype):
    """Convert one prepared-statement argument to the storage domain.

    ``sqltype.to_storage`` already accepts the lenient python spellings
    (ISO strings for DATE, str digits for INTEGER); exact ``Decimal``
    values are rescaled without a float round-trip so they keep digits
    beyond 2**53.
    """
    if value is None:
        return None
    if sqltype is None:
        raise DatabaseError("parameter has no inferred type")
    if sqltype.category == T.TypeCategory.STRING:
        # strings stay python str; heap insertion happens at eval time
        return value if isinstance(value, str) else str(value)
    import decimal

    if (
        sqltype.category == T.TypeCategory.DECIMAL
        and isinstance(value, decimal.Decimal)
    ):
        scaled = (value * 10**sqltype.scale).to_integral_value(
            rounding=decimal.ROUND_HALF_EVEN
        )
        return np.int64(int(scaled))
    return sqltype.to_storage(value)


@dataclass
class ExecutionConfig:
    """Tuning knobs of the execution engine."""

    parallel: bool = False
    max_workers: int = 4
    min_parallel_rows: int = 1 << 16
    #: target rows per morsel of the morsel executor (repro.exec)
    morsel_rows: int = 1 << 16
    use_imprints: bool = True
    use_hash_index: bool = True
    use_order_index: bool = True
    timeout: float | None = None
    #: ring-buffer capacity of the per-database query log (sys.queries)
    query_log_size: int = 256
    #: statements at/above this total wall time (microseconds) are copied
    #: into the slow-query log; None disables slow-query capture
    slow_query_us: float | None = None
    #: plan cache capacity (entries / estimated bytes); 0 entries disables
    plan_cache_entries: int = 128
    plan_cache_bytes: int = 8 << 20
    #: opt-in result-set cache for read-only statements
    result_cache: bool = False
    result_cache_bytes: int = 32 << 20
    #: target chunk size for COPY INTO bulk loads (bytes of input per task)
    copy_chunk_bytes: int = 4 << 20
    #: hierarchical span tracing (sys.trace_events / export_trace); off by
    #: default — the disabled path is one attribute check per statement
    trace_spans: bool = False
    #: head-based sampling probability for deep (per-instruction) spans
    span_sample_rate: float = 1.0
    #: statements at/above this wall time (us) are retained even when the
    #: sampler skipped them (always-on slow-query capture); None disables
    span_slow_us: float | None = None
    #: ring-buffer capacity of the span store (spans, not statements)
    span_buffer_size: int = 4096


@dataclass
class MaterializedResult:
    """A fully materialized query result (columnar)."""

    names: list
    columns: list  # of storage Columns
    nrows: int = field(init=False)

    def __post_init__(self):
        self.nrows = len(self.columns[0]) if self.columns else 0


class ExecutionContext:
    """Shared state of one query execution (txn, config, subquery stack)."""

    def __init__(self, database, txn, config: ExecutionConfig, trace=None,
                 phases=None, params=None, spans=None):
        self.database = database
        self.txn = txn
        self.config = config
        #: optional repro.obs.QueryTrace; None keeps the hot loop untraced
        self.trace = trace
        #: optional dict of plan-phase timings (ns) for the query log; the
        #: top-level Interpreter.run adds its "execute" share on exit
        self.phases = phases
        #: optional repro.obs.spans.StatementSpans; instruction spans are
        #: recorded only when the handle sampled deep
        self.spans = spans
        #: prepared-statement argument values (python domain), or None
        self.params = params
        self._param_storage: dict = {}
        self.deadline = (
            time.monotonic() + config.timeout if config.timeout else None
        )
        self.outer_stack: list = []
        self._subplan_cache: dict = {}

    def check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise QueryTimeoutError("query exceeded its execution timeout")

    # -- prepared-statement parameters --------------------------------------------

    def param_value(self, param):
        """Storage-domain value of one Param node (converted once, cached)."""
        if self.params is None:
            raise DatabaseError(
                "statement has parameters but no values were supplied"
            )
        if param.index >= len(self.params):
            raise DatabaseError(
                f"missing value for parameter ${param.index + 1} "
                f"({len(self.params)} supplied)"
            )
        key = (param.index, id(param.type))
        if key not in self._param_storage:
            self._param_storage[key] = param_to_storage(
                self.params[param.index], param.type
            )
        return self._param_storage[key]

    # -- correlation -------------------------------------------------------------

    def outer_value(self, index: int):
        """(storage value, type) of slot ``index`` in the nearest outer row."""
        if not self.outer_stack:
            raise DatabaseError("outer reference outside a correlated subquery")
        values, types = self.outer_stack[-1]
        return values[index], types[index]

    def _subplan_program(self, bound) -> MALProgram:
        key = id(bound)
        program = self._subplan_cache.get(key)
        if program is None:
            program = compile_select(bound)
            self._subplan_cache[key] = program
        return program

    def _run_subplan(self, bound) -> MaterializedResult:
        program = self._subplan_program(bound)
        return Interpreter(self).run(program)

    @staticmethod
    def _row_frame(inputs: list, row: int):
        """Extract one outer row (storage-domain values) from input vectors."""
        values = []
        types = []
        for vec in inputs:
            types.append(vec.type)
            if vec.is_scalar:
                values.append(vec.data)
            elif vec.type.is_variable:
                values.append(
                    vec.heap.get(int(vec.data[row]))
                    if vec.heap is not None
                    else vec.data[row]
                )
            else:
                raw = vec.data[row]
                values.append(None if vec.type.is_null_scalar(raw) else raw)
        return values, types

    def eval_scalar_subquery(self, expression: E.ScalarSubqueryExpr, inputs: list):
        bound = expression.plan
        rtype = expression.type
        if not expression.correlated:
            result = self._run_subplan(bound)
            return V(rtype, self._scalar_from(result, rtype))
        n = self._input_length(inputs)
        out: list = []
        for row in range(n):
            if row % 1024 == 0:
                self.check_deadline()
            self.outer_stack.append(self._row_frame(inputs, row))
            try:
                result = self._run_subplan(bound)
            finally:
                self.outer_stack.pop()
            out.append(self._scalar_from(result, rtype))
        if rtype.is_variable:
            return V(rtype, np.array(out, dtype=object))
        data = np.array(
            [rtype.null_value if v is None else v for v in out], dtype=rtype.dtype
        )
        return V(rtype, data)

    def eval_exists_subquery(self, expression: E.ExistsSubqueryExpr, inputs: list):
        bound = expression.plan
        if not expression.correlated:
            result = self._run_subplan(bound)
            n = self._input_length(inputs)
            hit = result.nrows > 0
            truth = np.full(n, hit != expression.negated)
            return BoolVec(truth)
        n = self._input_length(inputs)
        truth = np.empty(n, dtype=bool)
        for row in range(n):
            if row % 1024 == 0:
                self.check_deadline()
            self.outer_stack.append(self._row_frame(inputs, row))
            try:
                result = self._run_subplan(bound)
            finally:
                self.outer_stack.pop()
            truth[row] = (result.nrows > 0) != expression.negated
        return BoolVec(truth)

    @staticmethod
    def _input_length(inputs: list) -> int:
        for vec in inputs:
            if isinstance(vec, V) and not vec.is_scalar:
                return len(vec.data)
        return 1

    @staticmethod
    def _scalar_from(result: MaterializedResult, rtype: T.SQLType):
        if result.nrows == 0:
            return None
        if result.nrows > 1:
            raise DatabaseError("scalar subquery returned more than one row")
        column = result.columns[0]
        if column.type.is_variable:
            return column.heap.get(int(column.data[0]))
        raw = column.data[0]
        return None if column.type.is_null_scalar(raw) else raw


class Interpreter:
    """Executes one MAL program against an execution context."""

    def __init__(self, ctx: ExecutionContext):
        self.ctx = ctx
        self._values: dict = {}
        self._prov: dict = {}  # var -> (table, version, colpos)
        self._result: MaterializedResult | None = None
        self._tactic: str | None = None  # set by handlers, read when tracing

    # -- driver ---------------------------------------------------------------------

    def run(self, program: MALProgram) -> MaterializedResult:
        phases = self.ctx.phases
        if phases is None:
            return self._run_program(program)
        # pop the dict for the duration of the run so nested subplan
        # interpreters (which share this ctx) fold into one "execute"
        # figure — the same top-level guard keeps the execute-phase span
        # singular per statement
        self.ctx.phases = None
        spans = self.ctx.spans
        exec_span = spans.begin("execute", "phase") if spans is not None else None
        started = time.perf_counter_ns()
        try:
            result = self._run_program(program)
            if exec_span is not None:
                spans.end(exec_span, rows_out=result.nrows)
            return result
        except BaseException:
            if exec_span is not None:
                spans.end(exec_span, status="error")
            raise
        finally:
            phases["execute"] = (
                phases.get("execute", 0) + time.perf_counter_ns() - started
            )
            self.ctx.phases = phases

    def _run_program(self, program: MALProgram) -> MaterializedResult:
        spans = self.ctx.spans
        skip = self._maybe_morsel(program)
        if self.ctx.trace is not None or (spans is not None and spans.deep):
            return self._run_instrumented(program, self.ctx.trace, spans, skip)
        for instruction in program.instructions:
            if skip is not None and instruction.var in skip:
                continue
            self.ctx.check_deadline()
            handler = getattr(self, f"_op_{instruction.op}", None)
            if handler is None:
                raise DatabaseError(f"unknown MAL op {instruction.op!r}")
            self._values[instruction.var] = handler(instruction)
        if self._result is None:
            raise DatabaseError("program produced no result")
        return self._result

    def _maybe_morsel(self, program: MALProgram):
        """Delegate the program's pipeline fragment to the morsel executor.

        Returns the set of vars the executor already produced (the loops
        skip those instructions), or None to run everything sequentially.
        A flat instruction trace (``Connection.trace_query``) disables
        delegation so the per-instruction profile reflects what actually
        ran.
        """
        config = self.ctx.config
        if not config.parallel or self.ctx.trace is not None:
            return None
        from repro.exec.executor import try_morsel_execute

        return try_morsel_execute(self, program)

    def _run_instrumented(self, program: MALProgram, trace,
                          spans, skip=None) -> MaterializedResult:
        """Same execution as :meth:`run`, recording one profile and/or one
        instruction span per executed instruction.  A separate loop keeps
        the untraced hot path free of per-instruction bookkeeping."""
        deep = spans is not None and spans.deep
        started = time.perf_counter_ns()
        for index, instruction in enumerate(program.instructions):
            if skip is not None and instruction.var in skip:
                continue
            self.ctx.check_deadline()
            handler = getattr(self, f"_op_{instruction.op}", None)
            if handler is None:
                raise DatabaseError(f"unknown MAL op {instruction.op!r}")
            rows_in = 0
            for var in instruction_inputs(instruction):
                rows_in = max(rows_in, cardinality(self._values.get(var)))
            self._tactic = None
            span = (
                spans.begin(instruction.op, "instruction") if deep else None
            )
            t0 = time.perf_counter_ns()
            value = handler(instruction)
            elapsed = time.perf_counter_ns() - t0
            self._values[instruction.var] = value
            if instruction.op == "result" and self._result is not None:
                rows_out = self._result.nrows
            else:
                rows_out = cardinality(value)
            if span is not None:
                spans.end(
                    span,
                    rows_in=rows_in,
                    rows_out=rows_out,
                    bytes=value_nbytes(value),
                    tactic=self._tactic,
                    detail=instruction.render(),
                )
                spans.add_rows(rows_out)
            if trace is not None:
                trace.record(
                    index, instruction, rows_in, rows_out, self._tactic,
                    elapsed,
                )
        if self._result is None:
            raise DatabaseError("program produced no result")
        if trace is not None:
            trace.total_ns += time.perf_counter_ns() - started
            trace.result_rows = self._result.nrows
        return self._result

    def _get(self, var: int):
        return self._values[var]

    # -- data access -------------------------------------------------------------------

    def _op_bind(self, instr):
        table_name, colpos = instr.args
        table = self.ctx.txn.resolve_table(table_name)
        version = self.ctx.txn.read_version(table)
        snapshot = self.ctx.txn.snapshot_version(table)
        vec = vec_from_column(version.columns[colpos])
        if version is snapshot and not getattr(table, "is_virtual", False):
            # virtual system views are regenerated per statement; never
            # treat them as persistent columns eligible for auto-indexing
            self._prov[instr.var] = (table, version, colpos)
        return vec

    def _op_dual(self, instr):
        return V(T.INTEGER, np.zeros(1, dtype=np.int32))

    # -- expression evaluation ------------------------------------------------------------

    def _op_map(self, instr):
        expression, input_vars = instr.args
        inputs = [self._get(v) for v in input_vars]
        result = eval_value(expression, inputs, self.ctx)
        has_vector_input = any(
            isinstance(v, V) and not v.is_scalar for v in inputs
        )
        if isinstance(result, V) and result.is_scalar and has_vector_input:
            # broadcast constants to the input cardinality — including
            # n == 1 and the empty input: a lingering scalar carries no
            # cardinality, so a later consumer (set op, result) would
            # guess it from unrelated state
            n = ExecutionContext._input_length(inputs)
            column = vec_to_column(result, n)
            return vec_from_column(column)
        return result

    def _op_pred(self, instr):
        expression, input_vars = instr.args
        inputs = [self._get(v) for v in input_vars]
        accelerated = self._try_index_select(expression, input_vars, inputs)
        if accelerated is not None:
            return accelerated
        result = eval_pred(expression, inputs, self.ctx)
        n = ExecutionContext._input_length(inputs)
        if isinstance(result, BoolVec) and len(result) == 1 and n != 1:
            # a constant predicate evaluates to one cell; broadcast it to
            # the child cardinality (n == 0 included) so the selection it
            # feeds keeps, or drops, every row instead of exactly one
            truth = np.full(n, bool(result.truth[0]))
            valid = (
                None if result.valid is None
                else np.full(n, bool(result.valid[0]))
            )
            return BoolVec(truth, valid)
        return result

    def _op_ids(self, instr):
        predicate: BoolVec = self._get(instr.args[0])
        return np.flatnonzero(predicate.definite()).astype(np.int64)

    def _op_take(self, instr):
        var, ids_var = instr.args
        vec: V = self._get(var)
        ids = self._get(ids_var)
        if vec.is_scalar and len(ids) != 1:
            # a scalar stands for a broadcast column: selecting k rows
            # from it yields k copies, not the scalar itself (which would
            # resurrect a phantom row when k == 0)
            return vec_from_column(vec_to_column(vec, len(ids)))
        return vec.take(ids)

    def _op_head(self, instr):
        var, start, stop = instr.args
        vec: V = self._get(var)
        if vec.is_scalar:
            return vec
        return V(vec.type, vec.data[start:stop], vec.heap)

    def _op_concat(self, instr):
        lvar, rvar, ctype = instr.args
        left: V = self._get(lvar)
        right: V = self._get(rvar)
        # a scalar side is a single-row constant select (e.g. SELECT NULL):
        # materialize it so np.concatenate sees 1-d arrays in ctype's domain
        if left.is_scalar:
            left = vec_from_column(vec_to_column(V(ctype, left.data, left.heap), 1))
        if right.is_scalar:
            right = vec_from_column(vec_to_column(V(ctype, right.data, right.heap), 1))
        if ctype.is_variable:
            data = np.concatenate([left.objects(), right.objects()])
            return V(ctype, data)
        return V(
            ctype,
            np.concatenate(
                [
                    left.data.astype(ctype.dtype, copy=False),
                    right.data.astype(ctype.dtype, copy=False),
                ]
            ),
        )

    # -- joins -----------------------------------------------------------------------------

    def _op_join(self, instr):
        left_vars, right_vars, kind, anchors = instr.args
        left = [self._get(v) for v in left_vars]
        right = [self._get(v) for v in right_vars]
        if kind == "cross" or not left_vars:
            self._tactic = "cross"
            left_anchor = (
                self._get(anchors[0]) if anchors[0] is not None else None
            )
            right_anchor = (
                self._get(anchors[1]) if anchors[1] is not None else None
            )
            nl = (
                ExecutionContext._input_length([left_anchor])
                if left_anchor is not None
                else 1
            )
            nr = (
                ExecutionContext._input_length([right_anchor])
                if right_anchor is not None
                else 1
            )
            lidx = np.repeat(np.arange(nl, dtype=np.int64), nr)
            ridx = np.tile(np.arange(nr, dtype=np.int64), nl)
            return lidx, ridx

        # tactical choice 1: merge join over two order indexes
        if self.ctx.config.use_order_index and len(left_vars) == 1:
            merged = self._try_merge_join(left_vars[0], right_vars[0])
            if merged is not None:
                self._tactic = "merge_join"
                return merged
        # tactical choice 2: probe an automatic hash index on the right side
        if self.ctx.config.use_hash_index and len(right_vars) == 1:
            probed = self._try_hash_join(left[0], right_vars[0], right[0])
            if probed is not None:
                self._tactic = "hash_join"
                return probed
        lidx, ridx, self._tactic = ops.join_pairs(left, right)
        return lidx, ridx

    def _try_merge_join(self, left_var: int, right_var: int):
        lprov = self._prov.get(left_var)
        rprov = self._prov.get(right_var)
        if lprov is None or rprov is None:
            return None
        manager = self.ctx.database.index_manager
        left_index = manager.order_for(lprov[0], lprov[1], lprov[2])
        right_index = manager.order_for(rprov[0], rprov[1], rprov[2])
        if left_index is None or right_index is None:
            return None
        return left_index.merge_join(right_index)

    def _try_hash_join(self, left_key: V, right_var: int, right_key: V):
        prov = self._prov.get(right_var)
        if prov is None or left_key.type.is_variable or left_key.is_scalar:
            return None
        index = self.ctx.database.index_manager.hash_for(prov[0], prov[1], prov[2])
        if index is None:
            return None
        lidx, ridx = index.probe(left_key.data)
        lnull = left_key.null_mask(len(left_key.data))
        rnull = right_key.null_mask(len(right_key.data))
        if lnull is not None or rnull is not None:
            keep = np.ones(len(lidx), dtype=bool)
            if lnull is not None:
                keep &= ~lnull[lidx]
            if rnull is not None:
                keep &= ~rnull[ridx]
            lidx, ridx = lidx[keep], ridx[keep]
        return lidx, ridx

    def _op_pair_left(self, instr):
        return self._get(instr.args[0])[0]

    def _op_pair_right(self, instr):
        return self._get(instr.args[0])[1]

    def _op_pair_filter(self, instr):
        pair_var, ids_var = instr.args
        lidx, ridx = self._get(pair_var)
        ids = self._get(ids_var)
        return lidx[ids], ridx[ids]

    def _op_left_pad(self, instr):
        """Append each unmatched left row once, with -1 as its right id.

        The -1 sentinel turns into NULLs when the right side's columns go
        through ``take_pad`` — the NULL-extension of a LEFT OUTER JOIN.
        """
        pair_var, anchor_var = instr.args
        lidx, ridx = self._get(pair_var)
        anchor = self._get(anchor_var) if anchor_var is not None else None
        nl = (
            ExecutionContext._input_length([anchor])
            if anchor is not None
            else 1
        )
        matched = np.zeros(nl, dtype=bool)
        matched[lidx] = True
        missing = np.flatnonzero(~matched).astype(np.int64)
        if len(missing) == 0:
            return lidx, ridx
        return (
            np.concatenate([lidx, missing]),
            np.concatenate(
                [ridx, np.full(len(missing), -1, dtype=np.int64)]
            ),
        )

    def _op_take_pad(self, instr):
        """``take`` that yields NULL wherever the id is the -1 pad marker."""
        var, ids_var = instr.args
        vec: V = self._get(var)
        ids = self._get(ids_var)
        pad = ids < 0
        if vec.is_scalar:
            width = int(ids.max()) + 1 if len(ids) and ids.max() >= 0 else 1
            vec = vec_from_column(vec_to_column(vec, width))
        if not pad.any():
            return vec.take(ids)
        if len(vec.data) == 0:
            # every id is a pad marker: an all-NULL column
            if vec.type.is_variable and vec.heap is None:
                return V(vec.type, np.full(len(ids), None, dtype=object))
            return V(
                vec.type,
                np.full(len(ids), vec.type.null_value, dtype=vec.type.dtype),
                vec.heap,
            )
        safe = np.where(pad, 0, ids)
        data = vec.data[safe].copy()
        if vec.type.is_variable and vec.heap is None:
            data[pad] = None
        else:
            data[pad] = vec.type.null_value
        return V(vec.type, data, vec.heap)

    def _op_semijoin(self, instr):
        left_vars, right_vars, anti, null_aware = instr.args
        left = [self._get(v) for v in left_vars]
        right = [self._get(v) for v in right_vars]
        left = self._materialize_scalars(left)
        right = self._materialize_scalars(right)
        if (
            self.ctx.config.use_hash_index
            and len(right_vars) == 1
            and not left[0].type.is_variable
            and not left[0].is_scalar
            # NOT IN semantics depend on right-side NULLs/emptiness the
            # membership index cannot see
            and not (anti and null_aware)
        ):
            prov = self._prov.get(right_vars[0])
            if prov is not None:
                index = self.ctx.database.index_manager.hash_for(
                    prov[0], prov[1], prov[2]
                )
                if index is not None:
                    self._tactic = "hash_index"
                    member = index.contains(left[0].data)
                    nulls = left[0].null_mask(len(left[0].data))
                    if nulls is not None:
                        member &= ~nulls
                    if anti:
                        member = ~member
                    return np.flatnonzero(member).astype(np.int64)
        rows, self._tactic = ops.semijoin_rows(left, right, anti, null_aware=null_aware)
        return rows

    # -- grouping ---------------------------------------------------------------------------

    def _materialize_scalars(self, vecs: list) -> list:
        """Broadcast constant vectors to the relation's cardinality.

        Bulk kernels (group-by, semijoin codes) index by row position, so
        a scalar key (e.g. a projected literal) must become a full column
        before entering them.
        """
        if not any(v.is_scalar for v in vecs):
            return vecs
        n = next((len(v.data) for v in vecs if not v.is_scalar), None)
        if n is None:
            n = self._current_length()
        return [
            v if not v.is_scalar else vec_from_column(vec_to_column(v, n))
            for v in vecs
        ]

    def _op_groupby(self, instr):
        key_vars = instr.args[0]
        keys = self._materialize_scalars([self._get(v) for v in key_vars])
        if self.ctx.config.use_hash_index and len(key_vars) == 1:
            prov = self._prov.get(key_vars[0])
            if prov is not None:
                index = self.ctx.database.index_manager.hash_for(
                    prov[0], prov[1], prov[2]
                )
                if index is not None:
                    self._tactic = "hash_index"
                    return (
                        index.group_ids(),
                        index.representatives(),
                        index.group_count(),
                    )
        gids, reps, ngroups, self._tactic = ops.group_by(keys)
        return gids, reps, ngroups

    def _op_gb_ids(self, instr):
        return self._get(instr.args[0])[0]

    def _op_gb_reps(self, instr):
        return self._get(instr.args[0])[1]

    def _op_agg(self, instr):
        func, arg_var, gids_var, group_var, distinct, anchor_var, rtype = (
            instr.args[:7]
        )
        keep_var = instr.args[7] if len(instr.args) > 7 else None
        arg = self._get(arg_var) if arg_var is not None else None
        keep = None
        if keep_var is not None:
            # FILTER (WHERE ...): rows where the predicate is not definitely
            # true are excluded from this aggregate only
            keep = self._get(keep_var).definite()
        if group_var is not None:
            gids = self._get(gids_var)
            ngroups = self._get(group_var)[2]
            if arg is not None and arg.is_scalar:
                # constant argument: materialize at the grouped cardinality
                # (heap-encoding variable types along the way)
                arg = vec_from_column(vec_to_column(arg, len(gids)))
            if keep is not None:
                sel = np.flatnonzero(keep)
                if arg is not None:
                    arg = V(arg.type, arg.data[sel], arg.heap)
                gids = gids[sel]
        else:
            gids = None
            ngroups = 1
            if arg is None:
                if keep is not None:
                    n = int(keep.sum())
                else:
                    anchor = (
                        self._get(anchor_var) if anchor_var is not None else None
                    )
                    n = (
                        len(anchor.data)
                        if anchor is not None and not anchor.is_scalar
                        else (0 if anchor is None else 1)
                    )
                return V(
                    T.BIGINT, np.array([n], dtype=np.int64)
                )  # count(*) without groups
            if arg.is_scalar:
                anchor = self._get(anchor_var) if anchor_var is not None else None
                n = (
                    len(anchor.data)
                    if anchor is not None and not anchor.is_scalar
                    else 1
                )
                if keep is not None:
                    n = len(keep)
                arg = vec_from_column(vec_to_column(arg, n))
            if keep is not None:
                arg = V(arg.type, arg.data[np.flatnonzero(keep)], arg.heap)
        values, null_mask = ops.aggregate(func, arg, gids, ngroups, distinct)
        return self._wrap_agg(values, null_mask, rtype)

    # -- window functions --------------------------------------------------------------------

    def _op_winctx(self, instr):
        part_vars, order_vars, descending, nulls_first, anchor_var = instr.args
        vecs = [self._get(v) for v in tuple(part_vars) + tuple(order_vars)]
        anchor = self._get(anchor_var) if anchor_var is not None else None
        n = next((len(v.data) for v in vecs if not v.is_scalar), None)
        if n is None:
            if anchor is not None:
                n = len(anchor.data) if not anchor.is_scalar else 1
            else:
                n = self._current_length()
        vecs = [
            v if not v.is_scalar else vec_from_column(vec_to_column(v, n))
            for v in vecs
        ]
        part = vecs[: len(part_vars)]
        order = vecs[len(part_vars) :]
        return ops.window_context(
            part, order, list(descending), list(nulls_first), n
        )

    def _op_winfunc(self, instr):
        func, arg_var, wctx_var, frame, rtype, anchor_var = instr.args
        wctx = self._get(wctx_var)
        arg = self._get(arg_var) if arg_var is not None else None
        if arg is not None and arg.is_scalar:
            arg = vec_from_column(vec_to_column(arg, wctx.n))
        values, null_mask = ops.window_apply(func, arg, wctx, frame)
        return self._wrap_agg(values, null_mask, rtype)

    @staticmethod
    def _wrap_agg(values: np.ndarray, null_mask, rtype: T.SQLType) -> V:
        if values.dtype == object:
            return V(rtype, values)
        if rtype.category == T.TypeCategory.FLOAT:
            out = values.astype(np.float64)
            if null_mask is not None and null_mask.any():
                out[null_mask] = np.nan
            return V(rtype, out)
        out = values.astype(rtype.dtype)
        if null_mask is not None and null_mask.any():
            out = out.copy()
            out[null_mask] = rtype.null_value
        return V(rtype, out)

    # -- ordering / distinct / set ops -----------------------------------------------------------

    def _op_sort(self, instr):
        key_vars, descending, nulls_first = instr.args
        keys = self._materialize_group([self._get(v) for v in key_vars])
        return ops.sort_rows(keys, list(descending), list(nulls_first))

    def _op_topn(self, instr):
        key_vars, descending, nulls_first, limit, offset = instr.args
        keys = self._materialize_group([self._get(v) for v in key_vars])
        return ops.topn_rows(
            keys, list(descending), list(nulls_first), limit, offset
        )

    def _op_distinct(self, instr):
        vars_ = instr.args[0]
        vecs = self._materialize_group([self._get(v) for v in vars_])
        return ops.distinct_rows(vecs)

    def _op_setop_ids(self, instr):
        op, all_flag, left_vars, right_vars = instr.args
        # each side broadcasts its own scalars to its OWN cardinality; the
        # two branches of a set operation routinely differ in row count
        left = self._materialize_group([self._get(v) for v in left_vars])
        right = self._materialize_group([self._get(v) for v in right_vars])
        member_rows, _ = ops.semijoin_rows(
            left, right, anti=(op == "except"), null_equal=True
        )
        if all_flag:
            return member_rows
        # set semantics: keep the first occurrence of each distinct row
        keep = np.zeros(len(left[0].data), dtype=bool)
        keep[member_rows] = True
        firsts = ops.distinct_rows(left)
        return np.array([r for r in firsts if keep[r]], dtype=np.int64)

    def _materialize_group(self, vecs: list) -> list:
        """Broadcast scalars to the group's shared cardinality.

        The length comes from the group's own non-scalar members — never
        from unrelated interpreter state, which may belong to a different
        relation (e.g. the other branch of a set operation).
        """
        n = next((len(v.data) for v in vecs if not v.is_scalar), None)
        if n is None:
            n = self._current_length()
        return [
            v if not v.is_scalar else vec_from_column(vec_to_column(v, n))
            for v in vecs
        ]

    def _current_length(self) -> int:
        for value in reversed(list(self._values.values())):
            if isinstance(value, V) and not value.is_scalar:
                return len(value.data)
        return 1

    # -- result ----------------------------------------------------------------------------------

    def _op_result(self, instr):
        vars_, names, types = instr.args
        vecs = [self._get(v) for v in vars_]
        n = 1
        for vec in vecs:
            if isinstance(vec, V) and not vec.is_scalar:
                n = len(vec.data)
                break
        columns = [
            vec_to_column(vec, n) for vec in vecs
        ]
        self._result = MaterializedResult(list(names), columns)
        return None

    # -- index-accelerated selection -------------------------------------------------------------------

    def _try_index_select(self, expression, input_vars, inputs):
        """Answer simple conjunctive range predicates through indexes.

        Returns a BoolVec or None when no index applies.  Conjuncts that an
        ORDER INDEX answers exactly are dropped; imprint hits only *narrow*
        the candidate set and the full predicate is verified on candidates.
        """
        config = self.ctx.config
        if not (config.use_imprints or config.use_order_index):
            return None
        n = ExecutionContext._input_length(inputs)
        if n < 2 * 64:
            return None
        conjuncts = (
            list(expression.args)
            if isinstance(expression, E.BoolOp) and expression.op == "and"
            else [expression]
        )
        manager = self.ctx.database.index_manager
        candidates = None
        remaining: list = []
        used_index = False
        used_order = used_imprint = False
        for conjunct in conjuncts:
            simple = _simple_range(conjunct)
            handled = False
            if simple is not None:
                slot, lo, hi, lo_open, hi_open = simple
                vec = inputs[slot]
                prov = self._prov.get(input_vars[slot])
                if prov is not None and not vec.type.is_variable:
                    table, version, colpos = prov
                    if config.use_order_index and vec.type.category in (
                        T.TypeCategory.INTEGER,
                        T.TypeCategory.DECIMAL,
                        T.TypeCategory.DATE,
                    ):
                        order = manager.order_for(table, version, colpos)
                        if order is not None:
                            exact_lo, exact_lo_open = lo, lo_open
                            if exact_lo is None:
                                exact_lo = vec.type.null_value
                                exact_lo_open = True
                            mask = order.range_mask(
                                exact_lo, hi, exact_lo_open, hi_open
                            )
                            candidates = (
                                mask if candidates is None else candidates & mask
                            )
                            handled = True  # exact: conjunct fully answered
                            used_index = used_order = True
                    if not handled and config.use_imprints:
                        imprint = manager.imprint_for(table, version, colpos)
                        if imprint is not None:
                            mask = imprint.candidate_rows(
                                None if lo is None else float(lo),
                                None if hi is None else float(hi),
                            )
                            candidates = (
                                mask if candidates is None else candidates & mask
                            )
                            used_index = used_imprint = True
                            # imprints are approximate: verify below
            if not handled:
                remaining.append(conjunct)
        if not used_index or candidates is None:
            return None
        tactic = "+".join(
            name
            for name, hit in (("order_index", used_order), ("imprint", used_imprint))
            if hit
        )
        if not remaining:
            self._tactic = tactic
            return BoolVec(candidates)
        rows = np.flatnonzero(candidates)
        if len(rows) == n:
            return None  # index did not prune anything; use the normal path
        sub_inputs = [
            vec if not isinstance(vec, V) or vec.is_scalar else vec.take(rows)
            for vec in inputs
        ]
        predicate = (
            remaining[0]
            if len(remaining) == 1
            else E.BoolOp("and", tuple(remaining))
        )
        sub = eval_pred(predicate, sub_inputs, self.ctx)
        truth = np.zeros(n, dtype=bool)
        truth[rows] = sub.definite()
        self._tactic = tactic
        return BoolVec(truth)


def _simple_range(conjunct):
    """Match ``SlotRef op Const``; returns (slot, lo, hi, lo_open, hi_open)."""
    if not isinstance(conjunct, E.Compare):
        return None
    left, right, op = conjunct.left, conjunct.right, conjunct.op
    if isinstance(right, E.SlotRef) and isinstance(left, E.Const):
        flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}
        if op not in flip:
            return None
        left, right, op = right, left, flip[op]
    if not (isinstance(left, E.SlotRef) and isinstance(right, E.Const)):
        return None
    if right.value is None:
        return None
    value = right.value
    if op == "=":
        return left.index, value, value, False, False
    if op == "<":
        return left.index, None, value, False, True
    if op == "<=":
        return left.index, None, value, False, False
    if op == ">":
        return left.index, value, None, True, False
    if op == ">=":
        return left.index, value, None, False, False
    return None


