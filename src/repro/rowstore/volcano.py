"""Volcano iterator executor over bound logical plans.

One Python generator per operator, one ``next()`` per tuple — the classic
iterator model of SQLite/PostgreSQL/MariaDB that the paper contrasts with
column-at-a-time execution.  Consumes the *same* optimized logical plans as
the columnar engine, so the performance difference measured by the
benchmarks is purely the execution model (plus the row-major storage).
"""

from __future__ import annotations

import itertools
import time

from repro.algebra import expr as E
from repro.algebra import nodes as N
from repro.errors import DatabaseError, QueryTimeoutError
from repro.rowstore.row_eval import eval_row
from repro.storage import types as T

__all__ = ["VolcanoContext", "open_plan", "run_plan"]

_CHECK_EVERY = 2048


class VolcanoContext:
    """Execution state: table access, deadline, correlation stack."""

    def __init__(self, database, timeout: float | None = None):
        self.database = database
        self.deadline = time.monotonic() + timeout if timeout else None
        self._outer_stack: list = []
        self._tick = 0

    def check(self) -> None:
        self._tick += 1
        if self._tick % _CHECK_EVERY == 0 and self.deadline is not None:
            if time.monotonic() > self.deadline:
                raise QueryTimeoutError("query exceeded its execution timeout")

    def outer_row(self) -> tuple:
        if not self._outer_stack:
            raise DatabaseError("outer reference outside a correlated subquery")
        return self._outer_stack[-1]

    def scalar_subquery(self, expression: E.ScalarSubqueryExpr, row: tuple):
        self._outer_stack.append(row)
        try:
            rows = list(itertools.islice(open_plan(expression.plan.plan, self), 2))
        finally:
            self._outer_stack.pop()
        if not rows:
            return None
        if len(rows) > 1:
            raise DatabaseError("scalar subquery returned more than one row")
        return rows[0][0]

    def exists_subquery(self, expression: E.ExistsSubqueryExpr, row: tuple):
        self._outer_stack.append(row)
        try:
            found = next(iter(open_plan(expression.plan.plan, self)), None)
        finally:
            self._outer_stack.pop()
        return (found is not None) != expression.negated


def run_plan(bound: N.BoundSelect, ctx: VolcanoContext) -> list:
    """Materialize a plan into a list of storage-domain row tuples."""
    return list(open_plan(bound.plan, ctx))


def open_plan(node: N.LogicalNode, ctx: VolcanoContext):
    """Build the iterator tree for a logical plan node."""
    if isinstance(node, N.Scan):
        return _scan(node, ctx)
    if isinstance(node, N.Filter):
        return _filter(node, ctx)
    if isinstance(node, N.Project):
        return _project(node, ctx)
    if isinstance(node, N.Join):
        return _join(node, ctx)
    if isinstance(node, N.SemiJoin):
        return _semijoin(node, ctx)
    if isinstance(node, N.Aggregate):
        return _aggregate(node, ctx)
    if isinstance(node, N.Sort):
        return _sort(node, ctx)
    if isinstance(node, N.TopN):
        rows = _sort(N.Sort(node.child, node.keys), ctx)
        return itertools.islice(rows, node.offset, node.offset + node.limit)
    if isinstance(node, N.Limit):
        child = open_plan(node.child, ctx)
        stop = None if node.limit is None else node.offset + node.limit
        return itertools.islice(child, node.offset, stop)
    if isinstance(node, N.Distinct):
        return _distinct(node, ctx)
    if isinstance(node, N.SetOp):
        return _setop(node, ctx)
    if type(node).__name__ == "_RenamedPlan":
        return open_plan(node.child, ctx)
    if type(node).__name__ == "_DualScan":
        return iter([()])
    raise DatabaseError(f"volcano cannot execute {type(node).__name__}")


def _scan(node: N.Scan, ctx: VolcanoContext):
    table = ctx.database.table(node.table_name)
    indexes = node.column_indexes
    for row in table.rows():
        ctx.check()
        yield tuple(row[i] for i in indexes)


def _filter(node: N.Filter, ctx: VolcanoContext):
    predicate = node.predicate
    for row in open_plan(node.child, ctx):
        ctx.check()
        if eval_row(predicate, row, ctx):
            yield row


def _project(node: N.Project, ctx: VolcanoContext):
    exprs = node.exprs
    for row in open_plan(node.child, ctx):
        ctx.check()
        yield tuple(eval_row(e, row, ctx) for e in exprs)


def _join(node: N.Join, ctx: VolcanoContext):
    # a LEFT JOIN keeps unmatched left rows, padded with NULLs; the ON
    # residual decides matching only — it never deletes a left row
    pad = (None,) * len(node.right.output) if node.kind == "left" else None
    if node.kind == "cross" or not node.left_keys:
        right_rows = list(open_plan(node.right, ctx))
        for left_row in open_plan(node.left, ctx):
            matched = False
            for right_row in right_rows:
                ctx.check()
                combined = left_row + right_row
                if node.residual is None or eval_row(node.residual, combined, ctx):
                    matched = True
                    yield combined
            if pad is not None and not matched:
                yield left_row + pad
        return
    # tuple-at-a-time hash join: dict build on the right side
    build: dict = {}
    for right_row in open_plan(node.right, ctx):
        ctx.check()
        key = tuple(eval_row(k, right_row, ctx) for k in node.right_keys)
        if any(v is None for v in key):
            continue
        build.setdefault(key, []).append(right_row)
    for left_row in open_plan(node.left, ctx):
        ctx.check()
        key = tuple(eval_row(k, left_row, ctx) for k in node.left_keys)
        matched = False
        if not any(v is None for v in key):
            for right_row in build.get(key, ()):
                combined = left_row + right_row
                if node.residual is None or eval_row(node.residual, combined, ctx):
                    matched = True
                    yield combined
        if pad is not None and not matched:
            yield left_row + pad


def _semijoin(node: N.SemiJoin, ctx: VolcanoContext):
    keys = set()
    right_count = 0
    right_has_null = False
    for right_row in open_plan(node.right, ctx):
        ctx.check()
        right_count += 1
        key = tuple(eval_row(k, right_row, ctx) for k in node.right_keys)
        if any(v is None for v in key):
            right_has_null = True
        else:
            keys.add(key)
    for left_row in open_plan(node.left, ctx):
        ctx.check()
        key = tuple(eval_row(k, left_row, ctx) for k in node.left_keys)
        key_null = any(v is None for v in key)
        matched = not key_null and key in keys
        if node.anti and node.null_aware:
            # NOT IN three-valued logic: empty right keeps everything,
            # a NULL anywhere keeps nothing, else keep the non-matches
            if right_count == 0 or not (
                right_has_null or key_null or matched
            ):
                yield left_row
            continue
        if matched != node.anti:
            yield left_row


def _aggregate(node: N.Aggregate, ctx: VolcanoContext):
    groups: dict = {}
    for row in open_plan(node.child, ctx):
        ctx.check()
        key = tuple(eval_row(g, row, ctx) for g in node.group_exprs)
        state = groups.get(key)
        if state is None:
            state = [_new_state(spec) for spec in node.aggregates]
            groups[key] = state
        for spec, acc in zip(node.aggregates, state):
            _accumulate(spec, acc, row, ctx)
    if not groups and not node.group_exprs:
        groups[()] = [_new_state(spec) for spec in node.aggregates]
    for key, state in groups.items():
        yield key + tuple(
            _finalize(spec, acc) for spec, acc in zip(node.aggregates, state)
        )


def _new_state(spec: E.AggSpec):
    if spec.func == "median":
        return []
    if spec.distinct:
        return set()
    # [count, sum, min, max]; the sum stays a Python int while the values
    # are INTEGER or (unscaled) DECIMAL storage ints, so it is exact
    return [0, 0, None, None]


def _descale(spec: E.AggSpec, value):
    """A storage-domain number as its SQL value (DECIMALs are unscaled)."""
    if spec.arg.type.category == T.TypeCategory.DECIMAL:
        return float(value) / 10**spec.arg.type.scale
    return value


def _accumulate(spec: E.AggSpec, acc, row: tuple, ctx) -> None:
    if spec.filter is not None and not eval_row(spec.filter, row, ctx):
        # FILTER (WHERE ...): NULL counts as not-true, like WHERE
        return
    if spec.func == "count_star":
        acc[0] += 1
        return
    value = eval_row(spec.arg, row, ctx)
    if value is None:
        return
    if spec.func == "median":
        acc.append(value)
        return
    if spec.distinct:
        acc.add(value)
        return
    acc[0] += 1
    if spec.func in ("sum", "avg"):
        acc[1] += value
    elif spec.func == "min":
        acc[2] = value if acc[2] is None or value < acc[2] else acc[2]
    elif spec.func == "max":
        acc[3] = value if acc[3] is None or value > acc[3] else acc[3]


def _finalize(spec: E.AggSpec, acc):
    if spec.func == "count_star":
        return acc[0]
    if spec.func == "median":
        if not acc:
            return None
        values = sorted(acc)
        mid = len(values) // 2
        if len(values) % 2:
            return float(_descale(spec, values[mid]))
        return _descale(spec, values[mid - 1] + values[mid]) / 2.0
    if spec.distinct:
        if spec.func == "count":
            return len(acc)
        if not acc:
            return None
        if spec.func in ("min", "max"):
            return min(acc) if spec.func == "min" else max(acc)
        total = _descale(spec, sum(acc))
        if spec.func == "sum":
            return _sum_result(spec, total)
        return total / len(acc)  # avg
    count = acc[0]
    if spec.func == "count":
        return count
    if count == 0:
        return None
    if spec.func == "sum":
        return _sum_result(spec, _descale(spec, acc[1]))
    if spec.func == "avg":
        return _descale(spec, acc[1]) / count
    if spec.func == "min":
        return acc[2]
    if spec.func == "max":
        return acc[3]
    raise DatabaseError(f"unknown aggregate {spec.func!r}")


def _sum_result(spec: E.AggSpec, total):
    if spec.type.category == T.TypeCategory.INTEGER:
        return int(total)
    return float(total)


def _sort(node: N.Sort, ctx: VolcanoContext):
    rows = list(open_plan(node.child, ctx))
    # stable multi-pass sort: apply keys last-to-first (each pass stable)
    for key in reversed(node.keys):
        expr, descending = key.expr, key.descending
        nulls_first = key.nulls_first if key.nulls_first is not None else True
        decorated = [(eval_row(expr, row, ctx), row) for row in rows]
        nulls = [row for value, row in decorated if value is None]
        rest = [(value, row) for value, row in decorated if value is not None]
        rest.sort(key=lambda pair: pair[0], reverse=descending)
        sorted_rows = [row for _, row in rest]
        rows = (nulls + sorted_rows) if nulls_first else (sorted_rows + nulls)
    return iter(rows)


def _distinct(node: N.Distinct, ctx: VolcanoContext):
    seen = set()
    for row in open_plan(node.child, ctx):
        ctx.check()
        if row not in seen:
            seen.add(row)
            yield row


def _setop(node: N.SetOp, ctx: VolcanoContext):
    left_rows = list(open_plan(node.left, ctx))
    right_rows = list(open_plan(node.right, ctx))
    if node.op == "union":
        combined = left_rows + right_rows
        if node.all:
            yield from combined
            return
        yield from dict.fromkeys(combined)
        return
    right_set = set(right_rows)
    if node.op == "except":
        kept = [r for r in dict.fromkeys(left_rows) if r not in right_set]
    else:  # intersect
        kept = [r for r in dict.fromkeys(left_rows) if r in right_set]
    yield from kept
