"""Per-query execution traces (MonetDB's TRACE, reproduced).

A :class:`QueryTrace` is attached to an
:class:`~repro.mal.interpreter.ExecutionContext`; the interpreter then
records one :class:`InstructionProfile` per executed MAL instruction.
``EXPLAIN ANALYZE`` renders the trace as an annotated program listing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "InstructionProfile",
    "QueryTrace",
    "cardinality",
    "instruction_inputs",
    "value_nbytes",
]


@dataclass
class InstructionProfile:
    """Profile of one executed instruction."""

    index: int
    var: int
    op: str
    detail: str  # the rendered instruction text
    rows_in: int
    rows_out: int
    tactic: str | None  # e.g. "hash_join", "order_index", "direct"
    wall_ns: int


@dataclass
class QueryTrace:
    """All instruction profiles of one query execution."""

    sql: str | None = None
    records: list = field(default_factory=list)
    total_ns: int = 0
    result_rows: int = 0

    def record(
        self,
        index: int,
        instruction,
        rows_in: int,
        rows_out: int,
        tactic: str | None,
        wall_ns: int,
    ) -> None:
        self.records.append(
            InstructionProfile(
                index=index,
                var=instruction.var,
                op=instruction.op,
                detail=instruction.render(),
                rows_in=rows_in,
                rows_out=rows_out,
                tactic=tactic,
                wall_ns=wall_ns,
            )
        )

    # -- reporting ---------------------------------------------------------------

    def summary(self) -> dict:
        """Aggregate numbers for dashboards and bench output."""
        by_op: dict = {}
        for rec in self.records:
            ns, count = by_op.get(rec.op, (0, 0))
            by_op[rec.op] = (ns + rec.wall_ns, count + 1)
        return {
            "instructions": len(self.records),
            "total_us": self.total_ns / 1_000.0,
            "result_rows": self.result_rows,
            "by_op": {
                op: {"us": ns / 1_000.0, "count": count}
                for op, (ns, count) in sorted(
                    by_op.items(), key=lambda kv: -kv[1][0]
                )
            },
        }

    def top_instructions(self, limit: int = 3) -> list:
        """The most expensive instructions, by wall time."""
        return sorted(self.records, key=lambda r: -r.wall_ns)[:limit]

    def render(self) -> str:
        """Annotated listing: per-instruction time, cardinalities, tactic."""
        header = (
            f"{'#':>3}  {'time_us':>10}  {'rows_in':>9}  {'rows_out':>9}  "
            f"{'tactic':<12}  instruction"
        )
        lines = [header, "-" * len(header)]
        for rec in self.records:
            lines.append(
                f"{rec.index:>3}  {rec.wall_ns / 1_000.0:>10.1f}  "
                f"{rec.rows_in:>9}  {rec.rows_out:>9}  "
                f"{(rec.tactic or '-'):<12}  {rec.detail}"
            )
        lines.append(
            f"total: {self.total_ns / 1_000.0:.1f} us over "
            f"{len(self.records)} instructions, {self.result_rows} result rows"
        )
        return "\n".join(lines)


# -- cardinality extraction ---------------------------------------------------------


def cardinality(value) -> int:
    """Row count carried by one interpreter value.

    Values are vectors (V), predicates (BoolVec), id arrays, join pairs
    ``(lidx, ridx)``, or groupby triples ``(gids, reps, ngroups)``.
    """
    if value is None:
        return 0
    # V / Column duck type: .data plus .is_scalar
    is_scalar = getattr(value, "is_scalar", None)
    if is_scalar is not None:
        if is_scalar:
            return 1
        return len(value.data)
    truth = getattr(value, "truth", None)  # BoolVec
    if truth is not None:
        return len(truth)
    if isinstance(value, np.ndarray):
        return int(value.shape[0]) if value.ndim else 1
    if isinstance(value, tuple):
        if len(value) == 3:  # groupby: (gids, reps, ngroups)
            return int(value[2])
        if len(value) == 2:  # join pair: (lidx, ridx)
            return len(value[0])
    n = getattr(value, "n", None)  # WindowContext
    if n is not None:
        return int(n)
    return 0


def value_nbytes(value) -> int:
    """Approximate bytes touched producing one interpreter value.

    Sums the backing array sizes of the shapes the interpreter passes
    around (vectors, predicates, id arrays, join pairs, groupby triples);
    string heap bytes are not counted — this prices array traffic, the
    quantity the span tracer reports as ``bytes``.
    """
    if value is None:
        return 0
    data = getattr(value, "data", None)  # V duck type
    if data is not None and hasattr(data, "nbytes"):
        return int(data.nbytes)
    truth = getattr(value, "truth", None)  # BoolVec
    if truth is not None:
        total = int(truth.nbytes)
        valid = getattr(value, "valid", None)
        if valid is not None:
            total += int(valid.nbytes)
        return total
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, tuple):
        return sum(
            int(part.nbytes)
            for part in value
            if isinstance(part, np.ndarray)
        )
    return 0


#: arg positions (or nested tuples of positions) holding variable references,
#: per op.  Used to reconstruct an instruction's input cardinality.
def instruction_inputs(instruction) -> tuple:
    """Variable indexes read by one instruction."""
    op = instruction.op
    args = instruction.args
    if op in ("bind", "dual"):
        return ()
    if op in ("map", "pred"):
        return tuple(args[1])
    if op in ("ids", "head", "pair_left", "pair_right", "gb_ids", "gb_reps"):
        return (args[0],)
    if op in ("take", "concat"):
        return (args[0], args[1])
    if op == "join":
        anchors = tuple(a for a in args[3] if a is not None)
        return tuple(args[0]) + tuple(args[1]) + anchors
    if op == "semijoin":
        return tuple(args[0]) + tuple(args[1])
    if op in ("groupby", "sort", "topn", "distinct", "result"):
        return tuple(args[0])
    if op == "agg":
        # (func, arg_var, gids_var, group_var, distinct, anchor_var, rtype,
        #  filter_var)
        keep = args[7] if len(args) > 7 else None
        return tuple(
            v
            for v in (args[1], args[2], args[3], args[5], keep)
            if v is not None
        )
    if op == "winctx":
        # (part_vars, order_vars, descending, nulls_first, anchor_var)
        anchor = (args[4],) if args[4] is not None else ()
        return tuple(args[0]) + tuple(args[1]) + anchor
    if op == "winfunc":
        # (func, arg_var, wctx_var, frame, rtype, anchor_var)
        return tuple(
            v for v in (args[1], args[2], args[5]) if v is not None
        )
    if op == "setop_ids":
        return tuple(args[2]) + tuple(args[3])
    return ()
