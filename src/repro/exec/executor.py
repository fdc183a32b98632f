"""The morsel dispatcher: runs one fragment plan over the worker pool.

:func:`try_morsel_execute` is called by the interpreter before its
sequential loop.  When the program has a fragment plan and the input is
large enough, it:

1. evaluates the prelude (constant maps) and binds the fragment table's
   full columns on the coordinator;
2. splits the table into morsels and starts one *runner* task per worker
   on the database's shared pool — runners pull morsel indexes from a
   shared counter (dynamic dispatch: fast workers take more morsels);
3. each runner executes the whole fragment over its morsel — selection
   vectors, intermediates, and aggregate states stay local to
   the worker, no synchronization inside the pipeline;
4. the coordinator merges at the breaker: packed live-out vectors are
   concatenated in morsel order (selection vectors re-based to global
   row ids), per-morsel aggregate states are merged and finished
   (``agg_merge`` / ``agg_finish`` in ``repro.mal.operators``);
5. the interpreter resumes with the suffix instructions, skipping every
   var the fragment already produced.

Returns the skip-var set on success, or ``None`` when the program is not
morselable (the interpreter then runs it unchanged).  Any worker error
aborts the remaining morsels and re-raises on the coordinator.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.exec.fragments import analyze_program
from repro.exec.morsels import morsel_bounds, pack_values
from repro.mal import operators as ops
from repro.mal.vector_eval import eval_pred, eval_value
from repro.mal.vectors import V, vec_from_column, vec_to_column

__all__ = ["try_morsel_execute"]


def try_morsel_execute(interp, program):
    ctx = interp.ctx
    config = ctx.config
    plan = analyze_program(program)
    if plan is None:
        return None

    # bind the fragment table's columns on the coordinator (full columns:
    # the suffix may read them, and morsels slice them zero-copy)
    for instr in plan.binds:
        interp._values[instr.var] = interp._op_bind(instr)
    nrows = len(interp._values[plan.binds[0].var].data)
    if nrows < config.min_parallel_rows:
        return None
    workers = max(1, config.max_workers)
    bounds = morsel_bounds(nrows, config.morsel_rows, workers)
    if len(bounds) <= 1:
        return None

    # prelude: constant expressions evaluated once, shared read-only
    for instr in plan.prelude:
        interp._values[instr.var] = interp._op_map(instr)
    shared = {instr.var: interp._values[instr.var] for instr in plan.prelude}
    columns = {instr.var: interp._values[instr.var] for instr in plan.binds}

    nmorsels = len(bounds)
    workers = min(workers, nmorsels)
    cluster = plan.cluster
    spans = ctx.spans
    deep = spans is not None and spans.deep
    stats = getattr(ctx.database, "exec_stats", None)

    frag_span = (
        spans.begin(
            "fragment", "fragment", table=plan.table_name,
            morsels=nmorsels, workers=workers,
            instructions=len(plan.fragment),
        )
        if deep
        else None
    )
    if stats is not None:
        stats.fragment_started(nmorsels, workers)

    results: list = [None] * nmorsels
    lock = threading.Lock()
    cursor = [0]
    abort = threading.Event()

    def claim():
        if abort.is_set():
            return None
        with lock:
            index = cursor[0]
            if index >= nmorsels:
                return None
            cursor[0] = index + 1
            return index

    def run_morsel(index):
        start, stop = bounds[index]
        values = dict(shared)
        for instr in plan.fragment:
            op = instr.op
            if op == "bind":
                col = columns[instr.var]
                values[instr.var] = V(col.type, col.data[start:stop], col.heap)
            elif op == "map":
                expression, input_vars = instr.args
                inputs = [values[v] for v in input_vars]
                result = eval_value(expression, inputs, ctx)
                if isinstance(result, V) and result.is_scalar:
                    # always materialize inside a morsel: a scalar from one
                    # morsel and an array from another would not pack
                    n = _vectors_length(inputs)
                    result = vec_from_column(vec_to_column(result, n))
                values[instr.var] = result
            elif op == "pred":
                expression, input_vars = instr.args
                inputs = [values[v] for v in input_vars]
                values[instr.var] = eval_pred(expression, inputs, ctx)
            elif op == "ids":
                predicate = values[instr.args[0]]
                values[instr.var] = np.flatnonzero(
                    predicate.definite()
                ).astype(np.int64)
            else:  # take
                vec = values[instr.args[0]]
                ids = values[instr.args[1]]
                if vec.is_scalar:
                    values[instr.var] = vec_from_column(
                        vec_to_column(vec, len(ids))
                    )
                else:
                    values[instr.var] = vec.take(ids)
        packed = {v: values[v] for v in plan.packed_vars}
        domains = {
            v: len(values[d]) for v, d in plan.ids_domains.items()
        }
        states = (
            _morsel_states(cluster, values) if cluster is not None else None
        )
        return packed, domains, states

    def runner():
        busy = 0
        while True:
            index = claim()
            if index is None:
                return busy
            ctx.check_deadline()
            t0 = time.perf_counter_ns()
            out = run_morsel(index)
            t1 = time.perf_counter_ns()
            busy += t1 - t0
            results[index] = out
            rows = bounds[index][1] - bounds[index][0]
            if deep:
                spans.record(
                    "morsel", "morsel", t0, t1, parent=frag_span,
                    rows=rows, index=index,
                    worker=threading.current_thread().name,
                )
            if spans is not None:
                spans.add_rows(rows)
            if stats is not None:
                stats.morsel_completed(rows)

    wall_start = time.perf_counter_ns()
    busy_ns = 0
    error = None
    if workers == 1:
        try:
            busy_ns = runner()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            abort.set()
            error = exc
    else:
        pool = ctx.database.thread_pool
        futures = [pool.submit(runner) for _ in range(workers)]
        for future in futures:
            try:
                busy_ns += future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                abort.set()
                if error is None:
                    error = exc
    wall_ns = time.perf_counter_ns() - wall_start
    if stats is not None:
        with lock:
            aborted = nmorsels - cursor[0] + (1 if error is not None else 0)
        stats.fragment_finished(busy_ns, wall_ns, workers, max(0, aborted))
    if error is not None:
        if frag_span is not None:
            spans.end(frag_span, status="error")
        raise error

    _merge(interp, plan, results)
    if frag_span is not None:
        spans.end(frag_span, rows_out=nrows)
    return plan.skip_vars


def _vectors_length(inputs):
    for vec in inputs:
        if isinstance(vec, V) and not vec.is_scalar:
            return len(vec.data)
    return 1


def _morsel_states(cluster, values):
    """Thread-local aggregate states of one morsel: (ngroups, key_reps,
    [(arg_type, state)] per aggregate)."""
    if cluster.groupby is not None:
        key_vars = cluster.groupby.args[0]
        gids, reps, ngroups, _ = ops.group_by([values[v] for v in key_vars])
        key_reps = [values[v].take(reps) for v in key_vars]
    else:
        gids, ngroups, key_reps = None, 1, []
    states = []
    for agg in cluster.aggs:
        func, arg_var, anchor_var = agg.args[0], agg.args[1], agg.args[5]
        arg = values[arg_var] if arg_var is not None else None
        agg_gids = gids
        if agg_gids is None:
            # global: COUNT(*) and scalar arguments take the anchor's length
            anchor = arg if arg is not None and not arg.is_scalar else values[anchor_var]
            agg_gids = np.zeros(len(anchor.data), dtype=np.int64)
        state = ops.agg_state(func, arg, agg_gids, ngroups)
        states.append((arg.type if arg is not None else None, state))
    return ngroups, key_reps, states


def _merge(interp, plan, results):
    """Combine per-morsel outputs into the interpreter's value table."""
    # 1. packed live-out vectors, concatenated in morsel order
    for var in plan.packed_vars:
        parts = [r[0][var] for r in results]
        if var in plan.ids_domains:
            # selection vectors hold morsel-local row ids; re-base each
            # morsel by the running length of its predicate's domain
            offset = 0
            rebased = []
            for part, result in zip(parts, results):
                rebased.append(part + offset)
                offset += result[1][var]
            interp._values[var] = np.concatenate(rebased)
        else:
            interp._values[var] = pack_values(parts)

    cluster = plan.cluster
    if cluster is None:
        return

    # 2. merge and finish the morsels' aggregate states at the breaker
    if cluster.groupby is not None:
        key_vars = cluster.groupby.args[0]
        # re-group the morsels' group representatives: every local group
        # maps to one global group, deterministically ordered by key value
        # (the same order the blocking group_by kernel produces)
        merged_keys = [
            pack_values([r[2][1][k] for r in results])
            for k in range(len(key_vars))
        ]
        ggids, greps, ngroups, _ = ops.group_by(merged_keys)
        gid_maps = []
        offset = 0
        for r in results:
            local_groups = r[2][0]
            gid_maps.append(ggids[offset:offset + local_groups])
            offset += local_groups
        for take in cluster.key_takes:
            key_index = key_vars.index(take.args[0])
            interp._values[take.var] = merged_keys[key_index].take(greps)
    else:
        ngroups = 1
        gid_maps = [np.zeros(1, dtype=np.int64) for _ in results]

    for index, agg in enumerate(cluster.aggs):
        func = agg.args[0]
        arg_type = results[0][2][2][index][0]
        state = ops.agg_merge(
            func, [r[2][2][index][1] for r in results], gid_maps, ngroups
        )
        values, null_mask = ops.agg_finish(func, arg_type, state, ngroups)
        interp._values[agg.var] = interp._wrap_agg(
            values, null_mask, agg.args[6]
        )
