"""Pipeline-breaker analysis over compiled MAL programs.

A *fragment* is the maximal dataflow region of a program that can run
morsel-at-a-time over one base table: ``bind`` (sliced per morsel),
parallelizable ``map``/``pred``, ``ids`` (the thread-local selection
vector), and ``take`` through those selections.  Everything else is a
*pipeline breaker* in the paper's terminology — sort, top-N, distinct,
set operations, joins, and full aggregation consume whole columns.

Two breaker treatments exist:

* an **aggregate cluster** (``groupby``/``gb_ids``/``gb_reps`` plus the
  ``agg`` instructions over it, or bare global ``agg`` instructions) is
  absorbed into the fragment: each morsel computes per-group aggregate
  states and the executor merges and finishes them (``agg_state`` /
  ``agg_merge`` / ``agg_finish`` in ``repro.mal.operators``);
* any other consumer forces a **pack**: the fragment's live-out vectors
  are concatenated in morsel order and the interpreter resumes with the
  remaining instructions, seeing exactly the values sequential execution
  would have produced.

The analysis is static (it never looks at data), runs once per compiled
program, and is cached on the program object — plan-cache hits reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mal.operators import AGG_MERGE_KINDS
from repro.mal.program import Instruction, MALProgram
from repro.obs.trace import instruction_inputs

__all__ = [
    "AggCluster",
    "FragmentPlan",
    "analyze_program",
    "render_fragments",
    "SUPPORTED_PARTIAL_FUNCS",
]

#: aggregate functions whose state merges across morsels: the keys of the
#: state / merge / finish spec (DISTINCT variants are never decomposable —
#: they fall back to pack mode automatically)
SUPPORTED_PARTIAL_FUNCS = frozenset(AGG_MERGE_KINDS)

#: ops that may run inside a fragment (everything else breaks the pipeline)
_FRAGMENT_OPS = frozenset(["bind", "map", "pred", "ids", "take"])


@dataclass
class AggCluster:
    """One breaker absorbed as partial aggregation.

    ``groupby is None`` means global (ungrouped) aggregates.  ``key_takes``
    are the ``take(key, reps)`` instructions materializing the output key
    columns; ``aggs`` the ``agg`` instructions merged from partial states.
    """

    groupby: Instruction | None
    gb_ids: Instruction | None
    gb_reps: Instruction | None
    key_takes: list = field(default_factory=list)
    aggs: list = field(default_factory=list)

    @property
    def internal_vars(self) -> frozenset:
        """Vars defined by the cluster that the suffix never sees."""
        vars_ = set()
        for instr in (self.groupby, self.gb_ids, self.gb_reps):
            if instr is not None:
                vars_.add(instr.var)
        return frozenset(vars_)

    @property
    def output_vars(self) -> frozenset:
        """Vars the executor seeds from the merged states."""
        return frozenset(
            [i.var for i in self.key_takes] + [i.var for i in self.aggs]
        )


@dataclass
class FragmentPlan:
    """The morsel-execution recipe for one compiled program."""

    table_name: str
    #: constant ``map`` instructions evaluated once on the coordinator
    prelude: list
    #: fragment instructions in program order (includes the binds)
    fragment: list
    #: the ``bind`` instructions of the fragment's table
    binds: list
    cluster: AggCluster | None
    #: fragment vars consumed by the suffix -> packed across morsels
    packed_vars: tuple
    #: packed ``ids`` vars -> the var whose per-morsel length offsets them
    ids_domains: dict
    #: every var the interpreter must skip (fragment + prelude + cluster)
    skip_vars: frozenset

    @property
    def parallel_width(self) -> int:
        """Number of non-bind pipeline instructions run per morsel."""
        return sum(1 for i in self.fragment if i.op != "bind")


def analyze_program(program: MALProgram) -> FragmentPlan | None:
    """The cached fragment plan of a program (None when not morselable)."""
    try:
        return program._fragment_plan  # type: ignore[attr-defined]
    except AttributeError:
        pass
    plan = _analyze(program)
    program._fragment_plan = plan  # idempotent under concurrent analysis
    return plan


def _analyze(program: MALProgram) -> FragmentPlan | None:
    consumers: dict = {}
    for instr in program.instructions:
        for var in instruction_inputs(instr):
            consumers.setdefault(var, []).append(instr)

    table_name = None
    prelude: list = []
    fragment: list = []
    binds: list = []
    prelude_vars: set = set()
    fragment_vars: set = set()
    for instr in program.instructions:
        op = instr.op
        if op == "bind":
            if table_name is None:
                table_name = instr.args[0]
            if instr.args[0] == table_name:
                fragment.append(instr)
                binds.append(instr)
                fragment_vars.add(instr.var)
        elif op in ("map", "pred"):
            if not instr.parallelizable:
                continue
            input_vars = instr.args[1]
            known = fragment_vars | prelude_vars
            if (
                input_vars
                and all(v in known for v in input_vars)
                and any(v in fragment_vars for v in input_vars)
            ):
                fragment.append(instr)
                fragment_vars.add(instr.var)
            elif op == "map" and all(v in prelude_vars for v in input_vars):
                # constant expression (possibly over other constants):
                # evaluated once, broadcast-safe inside every morsel
                prelude.append(instr)
                prelude_vars.add(instr.var)
        elif op == "ids":
            if instr.args[0] in fragment_vars:
                fragment.append(instr)
                fragment_vars.add(instr.var)
        elif op == "take":
            var, ids_var = instr.args
            if ids_var in fragment_vars and (
                var in fragment_vars or var in prelude_vars
            ):
                fragment.append(instr)
                fragment_vars.add(instr.var)
        # every other op is a pipeline breaker: never enters the fragment

    if table_name is None:
        return None

    cluster = _detect_cluster(
        program, fragment_vars, prelude_vars, consumers
    )
    if cluster is None and not any(
        instr.op in ("map", "pred") for instr in fragment
    ):
        return None  # no pipeline work and no partial aggregation: the
        # morsel path would only re-concatenate unfiltered binds
    cluster_vars = (
        (cluster.internal_vars | cluster.output_vars)
        if cluster is not None
        else frozenset()
    )

    # liveness: fragment vars any outside instruction still reads get packed
    packed: list = []
    ids_domains: dict = {}
    cluster_members = set()
    if cluster is not None:
        members = [cluster.groupby, cluster.gb_ids, cluster.gb_reps]
        members += cluster.key_takes + cluster.aggs
        cluster_members = {id(i) for i in members if i is not None}
    for instr in fragment:
        escapes = any(
            id(c) not in cluster_members and c.var not in fragment_vars
            for c in consumers.get(instr.var, ())
        )
        if not escapes:
            continue
        if instr.op == "bind":
            continue  # seeded with the full column, nothing to pack
        if instr.op == "ids":
            # selection vectors index into their predicate's domain; the
            # packer re-bases each morsel by that domain's running length
            ids_domains[instr.var] = instr.args[0]
        packed.append(instr.var)

    skip_vars = frozenset(fragment_vars | prelude_vars | cluster_vars)
    return FragmentPlan(
        table_name=table_name,
        prelude=prelude,
        fragment=fragment,
        binds=binds,
        cluster=cluster,
        packed_vars=tuple(packed),
        ids_domains=ids_domains,
        skip_vars=skip_vars,
    )


def _detect_cluster(program, fragment_vars, prelude_vars, consumers):
    """Recognize the codegen aggregation pattern over fragment vars.

    Grouped form::

        G  := groupby(keys...)         keys all in the fragment
        I  := gb_ids(G);  R := gb_reps(G)
        Kx := take(key_x, R)           output key columns
        Ax := agg(f, arg, I, G, ...)   every agg partial-decomposable

    Global form: ``agg(f, arg, None, None, ...)`` instructions whose
    argument and anchor live in the fragment.  Any extra consumer of the
    grouping vars (or an unsupported aggregate) vetoes the cluster — the
    program still runs, in pack mode.
    """
    arg_ok = fragment_vars | prelude_vars

    groupby = next(
        (
            instr
            for instr in program.instructions
            if instr.op == "groupby"
            and all(v in fragment_vars for v in instr.args[0])
        ),
        None,
    )
    if groupby is not None:
        gb_consumers = consumers.get(groupby.var, [])
        gb_ids = next(
            (c for c in gb_consumers if c.op == "gb_ids"), None
        )
        gb_reps = next(
            (c for c in gb_consumers if c.op == "gb_reps"), None
        )
        aggs = [
            c for c in gb_consumers
            if c.op == "agg" and c.args[3] == groupby.var
        ]
        key_takes = (
            [
                c for c in consumers.get(gb_reps.var, [])
                if c.op == "take" and c.args[1] == gb_reps.var
            ]
            if gb_reps is not None
            else []
        )
        agg_ids = {id(a) for a in aggs}
        take_ids = {id(t) for t in key_takes}
        ok = (
            gb_ids is not None
            and aggs
            and all(
                agg.args[0] in SUPPORTED_PARTIAL_FUNCS
                and not agg.args[4]  # DISTINCT is not decomposable
                # FILTER predicates see whole-relation rows, not morsels
                and (len(agg.args) <= 7 or agg.args[7] is None)
                and (agg.args[1] is None or agg.args[1] in arg_ok)
                and agg.args[2] == gb_ids.var
                for agg in aggs
            )
            and all(take.args[0] in fragment_vars for take in key_takes)
            # the grouping state must be fully private to the cluster
            and all(
                c.op in ("gb_ids", "gb_reps") or id(c) in agg_ids
                for c in gb_consumers
            )
            and all(
                id(c) in agg_ids for c in consumers.get(gb_ids.var, [])
            )
            and (
                gb_reps is None
                or all(
                    id(c) in take_ids
                    for c in consumers.get(gb_reps.var, [])
                )
            )
        )
        if ok:
            return AggCluster(groupby, gb_ids, gb_reps, key_takes, aggs)
        return None

    aggs = [
        instr
        for instr in program.instructions
        if instr.op == "agg"
        and instr.args[3] is None
        and instr.args[0] in SUPPORTED_PARTIAL_FUNCS
        and not instr.args[4]
        and (len(instr.args) <= 7 or instr.args[7] is None)
        and (instr.args[1] is None or instr.args[1] in arg_ok)
        # the anchor fixes the broadcast cardinality; it must be a
        # fragment vector (non-scalar by construction) or absent with a
        # vector argument
        and (
            instr.args[5] in fragment_vars
            or (instr.args[5] is None and instr.args[1] in fragment_vars)
        )
    ]
    if aggs:
        return AggCluster(None, None, None, [], aggs)
    return None


def render_fragments(program: MALProgram) -> list:
    """EXPLAIN lines describing the morsel-parallel fragment, if any."""
    plan = analyze_program(program)
    if plan is None:
        return ["-- fragments: none (pipeline runs sequentially)"]
    lines = [
        f"-- fragment over {plan.table_name}"
        f" ({len(plan.fragment)} instructions, morsel-parallel):"
    ]
    lines.extend("--   " + instr.render() for instr in plan.fragment)
    cluster = plan.cluster
    if cluster is not None:
        funcs = ", ".join(agg.args[0] for agg in cluster.aggs)
        kind = (
            f"group-by merge over {len(cluster.groupby.args[0])} key(s)"
            if cluster.groupby is not None
            else "global merge"
        )
        lines.append(
            f"-- breaker: partial aggregate {kind} [{funcs}]"
        )
    else:
        lines.append(
            "-- breaker: pack morsels -> sequential suffix"
        )
    return lines
