"""Bulk relational operator kernels (grouping, joins, sorting, distinct).

All kernels are "blocking" MAL operators in the paper's terminology: they
consume whole columns and produce whole columns.  Composite keys are
factorized into dense integer codes first, so every algorithm runs on plain
int64 arrays regardless of the original key types.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatabaseError
from repro.mal.vectors import V
from repro.storage import types as T

__all__ = [
    "key_codes",
    "group_by",
    "aggregate",
    "join_pairs",
    "semijoin_rows",
    "sort_rows",
    "topn_rows",
    "distinct_rows",
    "WindowContext",
    "window_context",
    "window_apply",
]

#: dense kernels address at most this many slots per input row, which bounds
#: every direct-address scratch array (CSR slots, presence bitmaps) at a
#: small multiple of the input: never more than the sorts they replace
_DENSE_FACTOR = 4
_INT64_MAX = 2**63 - 1


def _int_domain(vec: V) -> bool:
    """True when equality on ``vec`` is equality of its int64 storage values
    (INTEGER family, DATE/TIME/TIMESTAMP, DECIMAL); its NULL sentinel is
    then the domain minimum."""
    return (
        not vec.type.is_variable
        and vec.type.category != T.TypeCategory.FLOAT
        and isinstance(vec.data, np.ndarray)
        and vec.data.dtype.kind == "i"
    )


def _heap_ranks(vec: V) -> tuple:
    """Order-preserving codes for a dictionary-deduplicated string vector.

    Only the distinct heap offsets the vector uses are ranked by value
    (NULL ranks as '' but stays its own code, ahead of a real '');
    rows then gather their rank through the offset.  Returns (codes, ndistinct).
    """
    present = np.zeros(len(vec.heap), dtype=bool)
    present[vec.data] = True
    offsets = np.flatnonzero(present)
    values = vec.heap.values_array()[offsets]
    order = np.argsort(
        np.asarray([v if v is not None else "" for v in values]), kind="stable"
    )
    rank = np.zeros(len(present), dtype=np.int64)
    rank[offsets[order]] = np.arange(len(offsets), dtype=np.int64)
    return rank[vec.data], len(offsets)


def key_codes(vec: V) -> np.ndarray:
    """Order-preserving int64 codes for one key vector (equal values, equal
    codes), which lets the same encoding drive grouping, sorting and distinct.
    """
    if vec.type.is_variable:
        if vec.heap is not None and vec.heap.dedup_active:
            return _heap_ranks(vec)[0]
        objects = vec.objects()
        keys = np.asarray([s if s is not None else "" for s in objects])
        _, inverse = np.unique(keys, return_inverse=True)
        codes = inverse.astype(np.int64) + 1
        nulls = np.asarray([s is None for s in objects], dtype=bool)
        if nulls.any():
            codes[nulls] = 0  # NULL is its own group, distinct from ''
        return codes
    data = vec.data
    if data.dtype.kind == "f":
        # NaN (NULL) values: unify them into one code
        data = np.where(np.isnan(data), -np.inf, data)
    _, inverse = np.unique(data, return_inverse=True)
    return inverse.astype(np.int64)


def _int_extent(vec: V) -> tuple:
    """(lo, hi, nulls) of an integer-domain vector: the range of its
    non-NULL values ((None, None) when there are none) and its NULL mask
    (None when it has no NULLs).

    The NULL sentinel is the domain minimum, so the mask is only computed
    when the minimum reaches it.
    """
    data = vec.data
    if len(data) == 0:
        return None, None, None
    lo, hi = int(data.min()), int(data.max())
    if lo > vec.type.null_value:
        return lo, hi, None
    nulls = data == vec.type.null_value
    rest = data[~nulls]
    if len(rest) == 0:
        return None, None, nulls
    return int(rest.min()), int(rest.max()), nulls


def _int_codes(data: np.ndarray, lo: int | None, nulls) -> np.ndarray:
    """``value - lo + 1`` as int64 for every non-NULL row, 0 for NULL.

    ``lo`` is at most the smallest non-NULL value (None when there is
    none), so codes keep value order with NULL first.
    """
    if lo is None:
        return np.zeros(len(data), dtype=np.int64)
    codes = data.astype(np.int64) - np.int64(lo - 1)
    if nulls is not None:
        codes[nulls] = 0
    return codes


def _group_key(vec: V, limit: int) -> tuple:
    """(codes, cardinality, dense) for one grouping key.

    Codes are order-preserving and lie in ``[0, cardinality)``.  ``dense``
    means they came without sorting the rows: value offsets for an
    integer key whose range fits ``limit`` (NULL takes code 0, first, as a
    sort would put it), or heap-offset ranks for a deduplicated string.
    Anything else is sorted by :func:`key_codes`.
    """
    if _int_domain(vec):
        lo, hi, nulls = _int_extent(vec)
        card = 1 if lo is None else hi - lo + 2
        if card <= limit:
            return _int_codes(vec.data, lo, nulls), card, True
    elif vec.type.is_variable and vec.heap is not None and vec.heap.dedup_active:
        codes, ndistinct = _heap_ranks(vec)
        return codes, ndistinct, True
    codes = key_codes(vec)
    return codes, int(codes.max(initial=-1)) + 1, False


def _group_codes(parts: list, n: int) -> tuple:
    """Group rows by per-key (codes, cardinality, dense) triples.

    Keys are combined mixed-radix into one int64 code whose order is the
    lexicographic key order.  When the combined space fits the dense limit,
    a presence bitmap and its prefix sum number the occupied codes in order;
    otherwise one ``np.unique`` sorts the combined codes.  Either way group
    ids follow key order and ``reps`` holds each group's first row.
    Returns (gids, reps, ngroups, tactic).
    """
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, 0, "dense"
    combined, space, dense = parts[0]
    for codes, card, key_dense in parts[1:]:
        if space * card > _INT64_MAX:
            # renumber the prefix densely so the product fits in int64
            _, combined = np.unique(combined, return_inverse=True)
            space = int(combined.max()) + 1
            dense = False
        combined = combined * card + codes
        space *= card
        dense &= key_dense
    if space <= _DENSE_FACTOR * n:
        present = np.zeros(space, dtype=bool)
        present[combined] = True
        gid_of = np.cumsum(present) - 1
        gids = gid_of[combined]
        ngroups = int(gid_of[-1]) + 1
        reps = np.full(ngroups, n, dtype=np.int64)
        np.minimum.at(reps, gids, np.arange(n, dtype=np.int64))
        return gids, reps, ngroups, "dense" if dense else "sort"
    uniques, reps, gids = np.unique(combined, return_index=True, return_inverse=True)
    return gids.astype(np.int64), reps.astype(np.int64), len(uniques), "sort"


def _group(key_vecs: list) -> tuple:
    n = len(key_vecs[0].data)
    return _group_codes([_group_key(vec, _DENSE_FACTOR * n) for vec in key_vecs], n)


def group_by(key_vecs: list) -> tuple:
    """Group rows by key vectors; returns (gids, reps, ngroups, tactic).

    ``gids`` assigns each row its dense group id (groups are numbered in
    key order), ``reps`` holds the first row of each group (for
    materializing group-key output columns).  ``tactic`` names the path
    taken: ``dense`` when no key needed sorting, else ``sort``.
    """
    if not key_vecs:
        raise DatabaseError("group_by requires at least one key")
    return _group(key_vecs)


# -- aggregates ------------------------------------------------------------------------------
#
# Each aggregate is defined once, as three steps: ``agg_state`` (the
# transition: per-group state arrays over a batch of rows), ``agg_merge``
# (combine the states of several batches, slot by slot) and ``agg_finish``
# (the terminate step: state -> (values, null_mask)).  The blocking kernel,
# the morsel breaker and the framed window kernels are all built from them.

#: merge kind of every state slot, per aggregate; its keys are exactly the
#: aggregates that decompose over row batches.  "add" and "min"/"max"
#: slots hold one entry per group, the "concat" slot per-row (gids, values).
#: States stay in the argument's storage domain (DECIMALs unscaled):
#:
#: ===========  ==================================================================
#: count_star   (counts,)
#: count        (non-NULL counts,)
#: sum          (sums, counts): int64 for INTEGER/DECIMAL, so exact; else float64
#: avg          (sums, counts): float64 sums
#: min, max     (extremes, counts): int64 (float64 for FLOAT, objects for strings)
#: median       ((gids, values),) over the non-NULL rows
#: stddev, var  (sums, sums of squares, counts): float64
#: ===========  ==================================================================
AGG_MERGE_KINDS = {
    "count_star": ("add",),
    "count": ("add",),
    "sum": ("add", "add"),
    "avg": ("add", "add"),
    "min": ("min", "add"),
    "max": ("max", "add"),
    "median": ("concat",),
    "stddev": ("add", "add", "add"),
    "var": ("add", "add", "add"),
}

_EXTREME_UFUNC = {"min": np.minimum, "max": np.maximum}


def aggregate(func: str, arg: V | None, gids, ngroups: int, distinct: bool = False):
    """Compute one aggregate per group; returns (values, null_mask).

    ``gids=None`` (with ngroups=1) means a full-column aggregate.
    """
    if gids is None:
        gids = np.zeros(len(arg.data) if arg is not None else 0, dtype=np.int64)
    if distinct and arg is not None:
        arg, gids = _first_distinct(arg, gids, ngroups)
    state = agg_state(func, arg, gids, ngroups)
    return agg_finish(func, arg.type if arg is not None else None, state, ngroups)


def _first_distinct(arg: V, gids: np.ndarray, ngroups: int) -> tuple:
    """The DISTINCT pre-step: each group's first row per distinct non-NULL
    value.  Returns the kept (arg, gids)."""
    n = len(gids)
    arg = _broadcast(arg, n)
    nulls = arg.null_mask(n)
    rows = np.flatnonzero(~nulls) if nulls is not None else np.arange(n)
    codes, card, dense = _group_key(arg, _DENSE_FACTOR * n)
    _, first, _, _ = _group_codes(
        [(gids[rows], ngroups, True), (codes[rows], card, dense)], len(rows)
    )
    keep = rows[first]
    return arg.take(keep), gids[keep]


def _broadcast(arg: V, n: int) -> V:
    """A scalar argument repeated over ``n`` rows (vectors pass unchanged)."""
    if isinstance(arg.data, np.ndarray):
        return arg
    if arg.type.is_variable:
        data = np.full(n, 0, dtype=np.int64)
    else:
        fill = arg.type.null_value if arg.data is None else arg.data
        data = np.full(n, fill, dtype=arg.type.dtype)
    return V(arg.type, data, arg.heap)


def _exact_sum(arg_type: T.SQLType) -> bool:
    """Whether sums of ``arg_type`` accumulate exactly in int64 storage units."""
    return arg_type.category in (T.TypeCategory.INTEGER, T.TypeCategory.DECIMAL)


def agg_state(func: str, arg: V | None, gids: np.ndarray, ngroups: int) -> tuple:
    """Per-group state of one aggregate over a batch of rows.

    ``gids`` assigns each row its group in ``[0, ngroups)``; the slots are
    laid out as :data:`AGG_MERGE_KINDS` describes.
    """
    if func not in AGG_MERGE_KINDS:
        raise DatabaseError(f"unknown aggregate {func!r}")
    if func == "count_star":
        return (np.bincount(gids, minlength=ngroups),)
    if arg is None:
        raise DatabaseError(f"aggregate {func} requires an argument")
    arg = _broadcast(arg, len(gids))
    nulls = arg.null_mask(len(gids))
    if nulls is not None and nulls.any():
        rows = np.flatnonzero(~nulls)
        arg, gids = arg.take(rows), gids[rows]
    counts = np.bincount(gids, minlength=ngroups)
    if func == "count":
        return (counts,)
    if func in ("min", "max"):
        return _extremes(func, arg, gids, ngroups), counts
    if arg.type.is_variable:
        raise DatabaseError(f"aggregate {func} not defined for strings")
    if func == "sum" and _exact_sum(arg.type):
        sums = np.zeros(ngroups, dtype=np.int64)
        np.add.at(sums, gids, arg.data.astype(np.int64))
        return sums, counts
    values = arg.data.astype(np.float64)
    if func == "median":
        return ((gids, values),)
    sums = np.bincount(gids, weights=values, minlength=ngroups)
    if func in ("sum", "avg"):
        return sums, counts
    squares = np.bincount(gids, weights=values**2, minlength=ngroups)
    return sums, squares, counts


def agg_merge(func: str, states: list, gid_maps: list, ngroups: int) -> tuple:
    """Combine the states of several row batches into one state.

    ``gid_maps[b]`` maps batch ``b``'s group ids to the ``ngroups`` merged
    groups; each slot merges by its kind in :data:`AGG_MERGE_KINDS`.
    """
    gids = np.concatenate(gid_maps)
    merged = []
    for slot, kind in enumerate(AGG_MERGE_KINDS[func]):
        parts = [state[slot] for state in states]
        if kind == "concat":
            merged.append((
                np.concatenate([gmap[g] for (g, _), gmap in zip(parts, gid_maps)]),
                np.concatenate([values for _, values in parts]),
            ))
            continue
        values = np.concatenate(parts)
        if kind == "add":
            out = np.zeros(ngroups, dtype=values.dtype)
            np.add.at(out, gids, values)
        elif values.dtype == object:
            keep = np.flatnonzero(~np.equal(values, None))
            out = _string_extremes(kind, V(T.STRING, values[keep]), gids[keep], ngroups)
        else:
            out = _extreme_init(kind, values.dtype, ngroups)
            _EXTREME_UFUNC[kind].at(out, gids, values)
        merged.append(out)
    return tuple(merged)


def agg_finish(func: str, arg_type: T.SQLType | None, state: tuple, ngroups: int):
    """(values, null_mask) of one aggregate from its state.

    The one place that descales DECIMALs, divides averages, forms the
    variance and maps extremes back to the argument's storage type.
    """
    if func in ("count_star", "count"):
        return state[0], None
    if func in ("min", "max"):
        extremes, counts = state
        empty = counts == 0
        if extremes.dtype == object:
            return np.where(empty, None, extremes), empty
        if arg_type.category != T.TypeCategory.FLOAT:
            extremes = np.where(empty, 0, extremes).astype(arg_type.dtype)
        return extremes, empty
    scale = 1.0
    if arg_type.category == T.TypeCategory.DECIMAL:
        scale = float(10**arg_type.scale)
    if func == "median":
        gids, values = state[0]
        out, empty = _median(values, gids, ngroups)
        return out / scale, empty
    if func in ("sum", "avg"):
        sums, counts = state
        if func == "sum" and arg_type.category == T.TypeCategory.INTEGER:
            return sums, counts == 0
        total = sums.astype(np.float64) / scale
        if func == "avg":
            with np.errstate(invalid="ignore", divide="ignore"):
                total = total / counts
        return total, counts == 0
    sums, squares, counts = state
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = sums / counts
        variance = squares / counts - mean**2
        variance = np.where(counts > 1, variance * counts / (counts - 1), np.nan)
    variance = variance / scale**2
    if func == "var":
        return variance, counts <= 1
    return np.sqrt(np.maximum(variance, 0)), counts <= 1


def _extreme_init(func: str, dtype, ngroups: int) -> np.ndarray:
    """Per-group start value of a min/max: every value beats it."""
    if dtype == np.float64:
        start = np.inf if func == "min" else -np.inf
    else:
        start = _INT64_MAX if func == "min" else -_INT64_MAX - 1
    return np.full(ngroups, start, dtype=dtype)


def _extremes(func: str, arg: V, gids: np.ndarray, ngroups: int) -> np.ndarray:
    """Per-group min/max of a NULL-free vector, in its storage domain."""
    if arg.type.is_variable:
        return _string_extremes(func, arg, gids, ngroups)
    dtype = np.float64 if arg.type.category == T.TypeCategory.FLOAT else np.int64
    out = _extreme_init(func, np.dtype(dtype), ngroups)
    _EXTREME_UFUNC[func].at(out, gids, arg.data.astype(dtype, copy=False))
    return out


def _string_extremes(func: str, arg: V, gids: np.ndarray, ngroups: int) -> np.ndarray:
    """Per-group min/max of a NULL-free string vector (None for empty
    groups), compared through order-preserving codes."""
    out = np.full(ngroups, None, dtype=object)
    if len(gids) == 0:
        return out
    codes = key_codes(arg)
    best = _extremes(func, V(T.BIGINT, codes), gids, ngroups)
    hit = np.flatnonzero(codes == best[gids])
    rep = np.full(ngroups, -1, dtype=np.int64)
    rep[gids[hit]] = hit
    found = rep >= 0
    out[found] = arg.take(rep[found]).objects()
    return out


def _median(values, gids, ngroups):
    """Per-group median of NULL-free values via one (group, value) sort."""
    sorted_values = values[np.lexsort((values, gids))]
    counts = np.bincount(gids, minlength=ngroups)
    nonempty = counts > 0
    starts = (np.cumsum(counts) - counts)[nonempty]
    sizes = counts[nonempty]
    out = np.full(ngroups, np.nan)
    lo = sorted_values[starts + (sizes - 1) // 2]
    hi = sorted_values[starts + sizes // 2]
    out[nonempty] = (lo + hi) / 2.0
    return out, ~nonempty


# -- joins -----------------------------------------------------------------------------------


def _int_keys(left_vecs: list, right_vecs: list, null_equal: bool):
    """Exact composite int64 keys for integer-domain join keys.

    Each key column is offset by the smallest non-NULL value on either
    side (NULL takes code 0) and the columns are combined mixed-radix, so
    equal keys get equal codes and nothing passes through ``float64``.
    Rows with a NULL key get -1 and never match, unless ``null_equal``.
    Returns (left_keys, right_keys, space) with every code in
    ``[-1, space)``, or None when some column pair is not integer-domain
    on both sides (or DECIMALs of different scale), or the combined key
    space does not fit in int64.
    """
    for lv, rv in zip(left_vecs, right_vecs):
        if not (_int_domain(lv) and _int_domain(rv)) or lv.type.scale != rv.type.scale:
            return None
    columns = []
    space = 1
    for lv, rv in zip(left_vecs, right_vecs):
        llo, lhi, lnull = _int_extent(lv)
        rlo, rhi, rnull = _int_extent(rv)
        los = [lo for lo in (llo, rlo) if lo is not None]
        his = [hi for hi in (lhi, rhi) if hi is not None]
        lo = min(los) if los else None
        card = max(his) - lo + 2 if los else 1
        space *= card
        if space > _INT64_MAX:
            return None
        columns.append((lo, card, lnull, rnull))
    lkeys = rkeys = lnulls = rnulls = None
    for (lo, card, lnull, rnull), lv, rv in zip(columns, left_vecs, right_vecs):
        lcodes = _int_codes(lv.data, lo, lnull)
        rcodes = _int_codes(rv.data, lo, rnull)
        lkeys = lcodes if lkeys is None else lkeys * card + lcodes
        rkeys = rcodes if rkeys is None else rkeys * card + rcodes
        lnulls = _or_mask(lnulls, lnull)
        rnulls = _or_mask(rnulls, rnull)
    if not null_equal:
        if lnulls is not None:
            lkeys[lnulls] = -1
        if rnulls is not None:
            rkeys[rnulls] = -1
    return lkeys, rkeys, space


def _or_mask(acc, mask):
    if mask is None:
        return acc
    return mask if acc is None else acc | mask


def _shared_codes(left_vecs: list, right_vecs: list, null_equal: bool = False):
    """Factorize both sides' composite keys into one shared code space.

    The sort-based path for keys :func:`_int_keys` does not take: strings,
    floats, and integer keys whose space overflows int64.  Each column
    pair is coded by one joint ``np.unique`` — through ``float64`` only
    when one side really is FLOAT, so integer keys stay exact.  NULL keys
    receive code -1 and never match — unless ``null_equal``, where NULL
    is one more per-column code and equals NULL (the grouping semantics
    set operations and DISTINCT use).
    """
    left_parts = []
    right_parts = []
    nl = len(left_vecs[0].data) if left_vecs else 0
    nr = len(right_vecs[0].data) if right_vecs else 0
    left_null = np.zeros(nl, dtype=bool)
    right_null = np.zeros(nr, dtype=bool)
    for lv, rv in zip(left_vecs, right_vecs):
        lnull = lv.null_mask(nl)
        rnull = rv.null_mask(nr)
        if lnull is None:
            lnull = np.zeros(nl, dtype=bool)
        if rnull is None:
            rnull = np.zeros(nr, dtype=bool)
        left_null |= lnull
        right_null |= rnull
        if lv.type.is_variable or rv.type.is_variable:
            both = np.concatenate(
                [
                    np.asarray([s if s is not None else "" for s in lv.objects()]),
                    np.asarray([s if s is not None else "" for s in rv.objects()]),
                ]
            )
        elif T.TypeCategory.FLOAT in (lv.type.category, rv.type.category):
            both = np.concatenate(
                [lv.data.astype(np.float64), rv.data.astype(np.float64)]
            )
        else:
            both = np.concatenate([lv.data.astype(np.int64), rv.data.astype(np.int64)])
        _, inverse = np.unique(both, return_inverse=True)
        inverse = inverse.astype(np.int64) + 1
        inverse[np.concatenate([lnull, rnull])] = 0  # NULL is its own key
        left_parts.append(inverse[:nl])
        right_parts.append(inverse[nl:])
    left_codes, right_codes = combine_joint(left_parts, right_parts)
    if null_equal:
        return left_codes, right_codes
    left_codes = left_codes.copy()
    right_codes = right_codes.copy()
    left_codes[left_null] = -1
    right_codes[right_null] = -1
    return left_codes, right_codes


def combine_joint(left_parts: list, right_parts: list):
    """Combine per-key codes of both sides consistently."""
    left = left_parts[0]
    right = right_parts[0]
    for lp, rp in zip(left_parts[1:], right_parts[1:]):
        width = int(max(lp.max(initial=0), rp.max(initial=0))) + 1
        left = left * width + lp
        right = right * width + rp
    return left, right


def _join_keys(left_vecs: list, right_vecs: list, null_equal: bool = False):
    """(left_keys, right_keys, space, tactic) for a join or semijoin.

    ``direct`` when the exact integer key space (``space`` codes) fits the
    dense limit, ``sorted_probe`` when it is exact but wider, ``sort_merge``
    when the keys had to be factorized by :func:`_shared_codes`.
    """
    keys = _int_keys(left_vecs, right_vecs, null_equal)
    if keys is None:
        lkeys, rkeys = _shared_codes(left_vecs, right_vecs, null_equal)
        return lkeys, rkeys, None, "sort_merge"
    lkeys, rkeys, space = keys
    if space <= _DENSE_FACTOR * (len(lkeys) + len(rkeys)):
        return lkeys, rkeys, space, "direct"
    return lkeys, rkeys, space, "sorted_probe"


def _expand(counts: np.ndarray, starts: np.ndarray, order: np.ndarray):
    """Pairs from each left row's match count and first position in ``order``
    (right rows grouped by key, ascending within a key)."""
    if counts.max(initial=0) <= 1:
        # every probe hits at most one row: no repeat/offset expansion
        lidx = np.flatnonzero(counts)
        return lidx, order[starts[lidx]]
    lidx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    offsets = np.arange(len(lidx), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return lidx, order[np.repeat(starts, counts) + offsets]


def join_pairs(left_vecs: list, right_vecs: list):
    """All matching (left_row, right_row) pairs of an equi-join, ordered by
    left row and, within a left row, by right row; returns
    (lidx, ridx, tactic) with ``tactic`` as chosen by :func:`_join_keys`.

    The right side is the build side.  On a ``direct`` key space it becomes
    a direct-address table — one slot per key when the build keys are
    unique, else a CSR of row lists — and each left key is probed by
    indexing.  Otherwise the right side is sorted once and each left key
    probed by two binary searches.
    """
    lkeys, rkeys, space, tactic = _join_keys(left_vecs, right_vecs)
    if tactic == "direct":
        return (*_direct_join(lkeys, rkeys, space), tactic)
    order = np.argsort(rkeys, kind="stable")
    sorted_keys = rkeys[order]
    # probe with ascending needles, then scatter back: binary searches then
    # walk the sorted build keys in order instead of missing cache on every
    # step (TPC-H Q5 at SF 0.1, 165k probes into 600k build rows on a Xeon:
    # 20 ms instead of 92 ms in row order)
    probe = np.argsort(lkeys)
    needles = lkeys[probe]
    lo = np.searchsorted(sorted_keys, needles, side="left")
    starts = np.empty(len(lkeys), dtype=np.int64)
    counts = np.empty(len(lkeys), dtype=np.int64)
    starts[probe] = lo
    counts[probe] = np.searchsorted(sorted_keys, needles, side="right") - lo
    counts[lkeys < 0] = 0
    return (*_expand(counts, starts, order), tactic)


def _direct_join(lkeys: np.ndarray, rkeys: np.ndarray, space: int):
    # one slot past the key space stays empty: -1 (NULL) keys index it
    valid = rkeys >= 0
    slot = np.full(space + 1, -1, dtype=np.int64)
    slot[rkeys] = np.arange(len(rkeys), dtype=np.int64)
    slot[space] = -1
    if np.count_nonzero(slot >= 0) == np.count_nonzero(valid):
        # unique build keys: the slot is the matching right row
        hit = slot[lkeys]
        lidx = np.flatnonzero(hit >= 0)
        return lidx, hit[lidx]
    del slot
    rows = np.flatnonzero(valid)
    keys = rkeys[rows]
    counts = np.bincount(keys, minlength=space + 1)
    starts = np.cumsum(counts) - counts
    order = rows[np.argsort(keys, kind="stable")]
    return _expand(counts[lkeys], starts[lkeys], order)


def semijoin_rows(
    left_vecs: list,
    right_vecs: list,
    anti: bool = False,
    null_equal: bool = False,
    null_aware: bool = False,
) -> tuple:
    """Left row ids with (or without, for anti) a match on the right;
    returns (rows, tactic) with ``tactic`` as chosen by :func:`_join_keys`.

    ``null_equal`` switches from join semantics (NULL matches nothing) to
    the grouping semantics of INTERSECT/EXCEPT, where NULL equals NULL.
    ``null_aware`` with ``anti`` applies NOT IN's three-valued logic:
    an empty right side keeps every left row, any NULL on the right
    keeps none, and NULL left keys are dropped.
    """
    lkeys, rkeys, space, tactic = _join_keys(left_vecs, right_vecs, null_equal)
    if anti and null_aware:
        if len(rkeys) == 0:
            return np.arange(len(lkeys), dtype=np.int64), tactic
        if np.any(rkeys < 0):
            return np.empty(0, dtype=np.int64), tactic
    if tactic == "direct":
        present = np.zeros(space + 1, dtype=bool)
        present[rkeys] = True
        present[space] = False  # where the -1 (NULL) keys land
        member = present[lkeys]
    else:
        member = np.isin(lkeys, rkeys[rkeys >= 0], kind="sort") & (lkeys >= 0)
    if anti and null_aware:
        member |= lkeys < 0
    if anti:
        member = ~member
    return np.flatnonzero(member), tactic


# -- sorting / distinct -------------------------------------------------------------------------


def sort_rows(key_vecs: list, descending: list, nulls_first: list) -> np.ndarray:
    """Stable multi-key sort; returns the row order.

    Default NULL placement follows MonetDB's sentinel encoding: NULLs sort
    as the smallest value unless ``nulls_first`` overrides it.
    """
    sort_keys = []
    n = len(key_vecs[0].data)
    for vec, desc, nf in zip(key_vecs, descending, nulls_first):
        codes = _sortable_codes(vec, n, nf, desc)
        if desc:
            codes = -codes
        sort_keys.append(codes)
    # np.lexsort sorts by the LAST key first
    return np.lexsort(sort_keys[::-1]).astype(np.int64)


def topn_rows(
    key_vecs: list,
    descending: list,
    nulls_first: list,
    limit: int,
    offset: int = 0,
) -> np.ndarray:
    """Row order of the first ``offset + limit`` rows under the sort keys.

    Fused top-N: an O(n) partition on the primary key narrows the input to
    the candidate rows that can appear in the window, and only those are
    fully sorted — instead of sorting the world and slicing.  Candidates
    keep their original row order, so ties resolve exactly as the stable
    full sort would and swapping this in for Sort+Limit is invisible.
    """
    n = len(key_vecs[0].data)
    k = min(offset + limit, n)
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    sort_keys = []
    for vec, desc, nf in zip(key_vecs, descending, nulls_first):
        codes = _sortable_codes(vec, n, nf, desc)
        if desc:
            codes = -codes
        sort_keys.append(codes)
    primary = sort_keys[0]
    if k < n:
        # kth-smallest primary code; every row that can make the window has
        # a code <= pivot (ties at the pivot stay in, the tail sort and the
        # final slice settle them)
        pivot = np.partition(primary, k - 1)[k - 1]
        candidates = np.flatnonzero(primary <= pivot)
        sub_keys = [codes[candidates] for codes in sort_keys]
    else:
        candidates = np.arange(n, dtype=np.int64)
        sub_keys = sort_keys
    order = np.lexsort(sub_keys[::-1])
    return candidates[order[:k]][offset:].astype(np.int64)


def _sortable_codes(vec: V, n: int, nulls_first, descending: bool) -> np.ndarray:
    """Per-key numeric codes whose ascending order is the key's order."""
    if vec.type.is_variable:
        codes = key_codes(vec).astype(np.float64)
    else:
        codes = vec.data.astype(np.float64, copy=True)
        if vec.data.dtype.kind == "f":
            codes = np.where(np.isnan(codes), -np.inf, codes)
    nulls = vec.null_mask(n)
    if nulls is not None and nulls.any():
        # default: NULLs first on ascending order (sentinel = minimum)
        first = nulls_first if nulls_first is not None else True
        extreme = -np.inf if first != descending else np.inf
        codes = codes.copy()
        codes[nulls] = extreme
    return codes


# -- window functions ---------------------------------------------------------------------------


class WindowContext:
    """Shared sorted-order context for one OVER specification.

    Built once per distinct OVER spec and reused by every window function
    over it.  All positional arrays live in *sorted* order (partition keys
    primary, then ORDER BY keys, stable on input row order); ``order``
    maps sorted position -> original row and ``inverse`` maps back, so a
    kernel computes in sorted space and scatters its result to the
    original row order at the end.

    Deliberately a ``__slots__`` object rather than a tuple: tracing
    inspects instruction results by shape, and a bare tuple would be
    mistaken for a group-by triple.
    """

    __slots__ = (
        "n",
        "order",
        "inverse",
        "part_ids",
        "part_start_pos",
        "part_end_pos",
        "peer_start_pos",
        "peer_end_pos",
        "nparts",
    )

    def __init__(
        self,
        n,
        order,
        inverse,
        part_ids,
        part_start_pos,
        part_end_pos,
        peer_start_pos,
        peer_end_pos,
        nparts,
    ):
        self.n = n
        self.order = order
        self.inverse = inverse
        self.part_ids = part_ids
        self.part_start_pos = part_start_pos
        self.part_end_pos = part_end_pos
        self.peer_start_pos = peer_start_pos
        self.peer_end_pos = peer_end_pos
        self.nparts = nparts


def window_context(
    part_vecs: list,
    order_vecs: list,
    descending: list,
    nulls_first: list,
    n: int,
) -> WindowContext:
    """Sort once per OVER spec; derive partition and peer-group extents."""
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return WindowContext(0, empty, empty, empty, empty, empty, empty, empty, 0)

    part_codes = _group(part_vecs)[0] if part_vecs else np.zeros(n, dtype=np.int64)
    order_codes = []
    for vec, desc, nf in zip(order_vecs, descending, nulls_first):
        codes = _sortable_codes(vec, n, nf, desc)
        if desc:
            codes = -codes
        order_codes.append(codes)
    # np.lexsort sorts by the LAST key first: partition is primary, then
    # the ORDER BY keys in sequence; stability preserves input row order
    order = np.lexsort(tuple(order_codes[::-1]) + (part_codes,)).astype(np.int64)
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.arange(n, dtype=np.int64)

    part_sorted = part_codes[order]
    part_new = np.empty(n, dtype=bool)
    part_new[0] = True
    part_new[1:] = part_sorted[1:] != part_sorted[:-1]

    peer_new = part_new.copy()
    for codes in order_codes:
        codes_sorted = codes[order]
        peer_new[1:] |= codes_sorted[1:] != codes_sorted[:-1]

    starts = np.flatnonzero(part_new)
    counts = np.diff(np.append(starts, n))
    part_ids = np.repeat(np.arange(len(starts), dtype=np.int64), counts)
    part_start_pos = np.repeat(starts, counts).astype(np.int64)
    part_end_pos = np.repeat(starts + counts - 1, counts).astype(np.int64)

    pstarts = np.flatnonzero(peer_new)
    pcounts = np.diff(np.append(pstarts, n))
    peer_start_pos = np.repeat(pstarts, pcounts).astype(np.int64)
    peer_end_pos = np.repeat(pstarts + pcounts - 1, pcounts).astype(np.int64)

    return WindowContext(
        n,
        order,
        inverse,
        part_ids,
        part_start_pos,
        part_end_pos,
        peer_start_pos,
        peer_end_pos,
        len(starts),
    )


def window_apply(func: str, arg: V | None, ctx: WindowContext, frame):
    """Evaluate one window function; returns (values, null_mask) in the
    ORIGINAL row order (``aggregate``'s return convention).

    ``frame`` is the normalized ``(unit, start, end)`` tuple or None for
    whole-partition evaluation.
    """
    n = ctx.n
    if n == 0:
        return np.empty(0, dtype=np.int64), None

    if arg is not None:
        arg = _broadcast(arg, n)
    idx = np.arange(n, dtype=np.int64)

    if func in ("row_number", "rank", "dense_rank"):
        if func == "row_number":
            out = idx - ctx.part_start_pos + 1
        elif func == "rank":
            out = ctx.peer_start_pos - ctx.part_start_pos + 1
        else:
            is_peer_start = idx == ctx.peer_start_pos
            peer_cum = np.cumsum(is_peer_start)
            out = peer_cum - peer_cum[ctx.part_start_pos] + 1
        return out[ctx.inverse].astype(np.int64), None

    if frame is None:
        # whole-partition aggregate, broadcast back over the rows
        sorted_arg = arg.take(ctx.order) if arg is not None else None
        values, null_mask = aggregate(func, sorted_arg, ctx.part_ids, ctx.nparts)
        out = values[ctx.part_ids][ctx.inverse]
        mask = null_mask[ctx.part_ids][ctx.inverse] if null_mask is not None else None
        return out, mask

    # framed: the aggregate's own state per row (one "group" per row) from
    # prefix sums or running extremes, finished like a grouped aggregate
    lo, hi, valid = _frame_extents(ctx, frame, idx)
    if func == "count_star":
        arg_type = None
        state = (np.where(valid, hi - lo + 1, 0).astype(np.int64),)
    elif arg is None:
        raise DatabaseError(f"window aggregate {func} requires an argument")
    else:
        arg_type = arg.type
        sorted_arg = arg.take(ctx.order)
        nulls = sorted_arg.null_mask(n)
        present = ~nulls if nulls is not None else np.ones(n, dtype=bool)
        lo_c = np.clip(lo, 0, n)
        hi1 = np.clip(hi + 1, 0, n)

        def frame_sums(values):
            prefix = np.concatenate([[0], np.cumsum(values)])
            return np.where(valid, prefix[hi1] - prefix[lo_c], 0)

        counts = frame_sums(present.astype(np.int64))
        if func == "count":
            state = (counts,)
        elif func in ("sum", "avg"):
            dtype = np.int64 if func == "sum" and _exact_sum(arg_type) else np.float64
            state = (frame_sums(np.where(present, sorted_arg.data, 0).astype(dtype)), counts)
        elif func in ("min", "max"):
            # the binder only admits UNBOUNDED PRECEDING .. CURRENT ROW here,
            # so a running (cumulative) extreme sampled at the frame end works
            state = (_running_extremes(func, sorted_arg, present, ctx, hi), counts)
        else:
            raise DatabaseError(f"unknown window function {func!r}")
    values, null_mask = agg_finish(func, arg_type, state, n)
    mask = null_mask[ctx.inverse] if null_mask is not None else None
    return values[ctx.inverse], mask


def _frame_extents(ctx: WindowContext, frame, idx):
    """Per-sorted-row frame [lo, hi] (inclusive) plus a non-empty mask."""
    unit, start, end = frame

    def bound_pos(bound, default):
        kind = bound[0]
        if kind == "unbounded_preceding":
            return ctx.part_start_pos
        if kind == "unbounded_following":
            return ctx.part_end_pos
        if kind == "current_row":
            return default
        offset = int(bound[1])
        return idx - offset if kind == "preceding" else idx + offset

    if unit == "range":
        # only UNBOUNDED PRECEDING .. CURRENT ROW survives binding: the
        # frame of a row extends to the end of its peer group
        lo = ctx.part_start_pos
        hi = ctx.peer_end_pos
    else:
        lo = np.maximum(bound_pos(start, idx), ctx.part_start_pos)
        hi = np.minimum(bound_pos(end, idx), ctx.part_end_pos)
    valid = lo <= hi
    return lo, hi, valid


def _running_extremes(func, sorted_arg: V, present, ctx: WindowContext, hi):
    """Cumulative per-partition min/max sampled at each row's frame end
    ``hi``, in the argument's storage domain.

    One segmented scan over dense order-preserving ranks, exact for every
    type: each partition is shifted into its own band of ``width`` ranks
    (later bands lower for min, higher for max), so earlier partitions can
    never win inside later ones.  NULL rows rank past every value; a frame
    with no non-NULL value samples junk that its zero count masks.
    """
    rows = np.flatnonzero(present)
    codes = key_codes(sorted_arg.take(rows))
    width = int(codes.max(initial=0)) + 2
    ranks = np.full(ctx.n, -1 if func == "max" else width - 1, dtype=np.int64)
    ranks[rows] = codes
    shift = ctx.part_ids * width
    if func == "max":
        run = np.maximum.accumulate(ranks + shift) - shift
    else:
        run = np.minimum.accumulate(ranks - shift) + shift
    rep = np.zeros(width, dtype=np.int64)
    rep[codes] = rows
    picked = sorted_arg.take(rep[np.clip(run[hi], 0, width - 1)])
    return picked.objects() if sorted_arg.type.is_variable else picked.data


def distinct_rows(vecs: list) -> np.ndarray:
    """Row ids of the first occurrence of each distinct full row."""
    if not vecs:
        return np.zeros(1, dtype=np.int64)
    return np.sort(_group(vecs)[1])
