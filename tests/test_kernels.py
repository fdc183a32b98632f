"""Property tests for the join, semijoin and group-by kernels.

Every kernel is checked against a pure-Python dict/loop reference on
random integer keys: single and composite, with NULLs, negative values,
empty sides, duplicate build keys, key spaces wide enough to force the
sorted paths, and values near 2^53 (where float64 stops being exact) and
2^63 (where a key space overflows int64).  The assertions are on exact
output order — pair order, group ids, representative rows and group
order — not on multisets.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.hashindex import HashIndex
from repro.mal import operators as ops
from repro.mal.vectors import V
from repro.storage import types as T
from repro.storage.stringheap import StringHeap

KEY_TYPES = [T.INTEGER, T.BIGINT, T.decimal(18, 2)]

_I32 = 2**31 - 1
_I64 = 2**63 - 1

#: value pools per column; the wide ones defeat the direct-address paths
POOLS = {
    "small": st.integers(-4, 6),
    "wide": st.integers(-(10**6), 10**6),
    "near_2_53": st.integers(2**53 - 3, 2**53 + 3),
    "near_2_63": st.sampled_from([_I64, _I64 - 1, -_I64, -_I64 + 1, 0]),
}

SETTINGS = settings(max_examples=150, deadline=None)


def _vec(sql_type, values):
    """A key vector; ``None`` becomes the type's NULL sentinel."""
    data = [sql_type.null_value if v is None else v for v in values]
    return V(sql_type, np.array(data, dtype=sql_type.dtype))


def _fits(sql_type, pool):
    # INTEGER columns only draw from pools inside the int32 domain
    return sql_type.dtype.itemsize == 8 or pool in ("small", "wide")


@st.composite
def key_columns(draw, sides=2):
    """``sides`` lists of row tuples over one shared composite key schema."""
    ncols = draw(st.integers(1, 3))
    schema = []
    for _ in range(ncols):
        pool = draw(st.sampled_from(sorted(POOLS)))
        left_type = draw(st.sampled_from([t for t in KEY_TYPES if _fits(t, pool)]))
        if left_type.category == T.TypeCategory.DECIMAL:
            right_type = left_type
        else:
            right_type = draw(
                st.sampled_from([t for t in KEY_TYPES[:2] if _fits(t, pool)])
            )
        schema.append((pool, left_type, right_type))
    cell = [st.one_of(st.none(), POOLS[pool]) for pool, _, _ in schema]
    row = st.tuples(*cell)
    tables = [draw(st.lists(row, max_size=40)) for _ in range(sides)]
    return schema, tables


def _vecs(schema, rows, side):
    return [
        _vec(types[side], [r[c] for r in rows])
        for c, (_, *types) in enumerate(schema)
    ]


def _has_null(row):
    return any(v is None for v in row)


def ref_join(left, right):
    return [
        (i, j)
        for i, lrow in enumerate(left)
        for j, rrow in enumerate(right)
        if not _has_null(lrow) and lrow == rrow
    ]


def ref_semijoin(left, right, anti, null_equal, null_aware):
    if anti and null_aware:
        if not right:
            return list(range(len(left)))
        if any(_has_null(r) for r in right):
            return []
    if null_equal:
        build = set(right)
        member = [row in build for row in left]
    else:
        build = {r for r in right if not _has_null(r)}
        member = [not _has_null(row) and row in build for row in left]
    if anti and null_aware:
        member = [m or _has_null(row) for m, row in zip(member, left)]
    return [i for i, m in enumerate(member) if m != anti]


def _order_key(row):
    # NULL sorts first within each key column
    return tuple((0, 0) if v is None else (1, v) for v in row)


def ref_group(rows):
    distinct = sorted(set(rows), key=_order_key)
    gid_of = {key: g for g, key in enumerate(distinct)}
    reps = [rows.index(key) for key in distinct]
    return [gid_of[r] for r in rows], reps, len(distinct)


def _pairs(result):
    lidx, ridx, _ = result
    assert lidx.dtype == np.int64 and ridx.dtype == np.int64
    return list(zip(lidx.tolist(), ridx.tolist()))


@SETTINGS
@given(key_columns())
def test_join_pairs_matches_reference(case):
    schema, (left, right) = case
    got = ops.join_pairs(_vecs(schema, left, 0), _vecs(schema, right, 1))
    assert _pairs(got) == ref_join(left, right)


@SETTINGS
@given(key_columns(), st.booleans(), st.booleans(), st.booleans())
def test_semijoin_rows_matches_reference(case, anti, null_equal, null_aware):
    schema, (left, right) = case
    null_aware = null_aware and anti and not null_equal
    got, _ = ops.semijoin_rows(
        _vecs(schema, left, 0),
        _vecs(schema, right, 1),
        anti=anti,
        null_equal=null_equal,
        null_aware=null_aware,
    )
    assert got.tolist() == ref_semijoin(left, right, anti, null_equal, null_aware)


@SETTINGS
@given(key_columns(sides=1).filter(lambda case: case[1][0]))
def test_group_by_matches_reference(case):
    schema, (rows,) = case
    gids, reps, ngroups, _ = ops.group_by(_vecs(schema, rows, 0))
    expected_gids, expected_reps, expected_n = ref_group(rows)
    assert ngroups == expected_n
    assert gids.tolist() == expected_gids
    assert reps.tolist() == expected_reps


@SETTINGS
@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.sampled_from(["", "a", "b", "ab", "Z"])),
            st.one_of(st.none(), st.integers(-3, 3)),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_group_by_dictionary_strings_matches_reference(rows):
    heap = StringHeap()
    # insert in reverse so heap offset order differs from value order
    for value in reversed([r[0] for r in rows]):
        heap.add(value)
    offsets = np.array([heap.add(r[0]) for r in rows], dtype=np.int64)
    keys = [V(T.STRING, offsets, heap), _vec(T.INTEGER, [r[1] for r in rows])]
    gids, reps, ngroups, _ = ops.group_by(keys)
    expected_gids, expected_reps, expected_n = ref_group(rows)
    assert (gids.tolist(), reps.tolist(), ngroups) == (
        expected_gids,
        expected_reps,
        expected_n,
    )


# -- which path runs -----------------------------------------------------------------


def _bigint(values):
    return [_vec(T.BIGINT, values)]


@pytest.mark.parametrize(
    "left, right, tactic",
    [
        ([1, 2, 3, 3], [3, 1, 1], "direct"),
        ([1, 2, 3], [3, 2, 1], "direct"),
        ([1, 10**9], [10**9, 5], "sorted_probe"),
        ([2**53, 2**53 + 1], [2**53 + 1], "direct"),
        ([-(2**60), 2**60], [2**60], "sorted_probe"),
        # the key space -2^63+1 .. 2^63-1 overflows int64
        ([-_I64, _I64], [_I64], "sort_merge"),
    ],
)
def test_join_tactic_reports_the_path_taken(left, right, tactic):
    lidx, ridx, taken = ops.join_pairs(_bigint(left), _bigint(right))
    assert taken == tactic
    assert list(zip(lidx.tolist(), ridx.tolist())) == ref_join(
        [(v,) for v in left], [(v,) for v in right]
    )


def test_composite_key_overflow_falls_back_exactly():
    # three near-full-range BIGINT columns: the key space overflows int64
    left = [(-_I64, _I64, 2**53 + 1), (-_I64, _I64, 2**53)]
    right = [(-_I64, _I64, 2**53 + 1), (_I64, -_I64, 0)]
    schema = [("near_2_63", T.BIGINT, T.BIGINT)] * 3
    got = ops.join_pairs(_vecs(schema, left, 0), _vecs(schema, right, 1))
    assert got[2] == "sort_merge"
    assert _pairs(got) == [(0, 0)]
    rows, tactic = ops.semijoin_rows(
        _vecs(schema, left, 0), _vecs(schema, right, 1), null_equal=True
    )
    assert (rows.tolist(), tactic) == ([0], "sort_merge")


def test_float_keys_take_the_sort_path():
    left = [V(T.DOUBLE, np.array([0.5, np.nan, 2.0]))]
    right = [V(T.DOUBLE, np.array([2.0, np.nan, 0.5, 0.5]))]
    got = ops.join_pairs(left, right)
    assert got[2] == "sort_merge"
    assert _pairs(got) == [(0, 2), (0, 3), (2, 0)]
    rows, _ = ops.semijoin_rows(left, right, null_equal=True)
    assert rows.tolist() == [0, 1, 2]


def test_group_tactic_reports_the_path_taken():
    assert ops.group_by(_bigint([3, 1, 3, None]))[3] == "dense"
    gids, reps, ngroups, tactic = ops.group_by(_bigint([10**12, 1, 10**12]))
    assert tactic == "sort"
    assert (gids.tolist(), reps.tolist(), ngroups) == ([1, 0, 1], [1, 0], 2)


def test_empty_inputs():
    empty = _bigint([])
    lidx, ridx, _ = ops.join_pairs(empty, _bigint([1, 2]))
    assert len(lidx) == len(ridx) == 0
    rows, _ = ops.semijoin_rows(_bigint([1, None]), empty, anti=True, null_aware=True)
    assert rows.tolist() == [0, 1]
    gids, reps, ngroups, _ = ops.group_by(empty)
    assert (len(gids), len(reps), ngroups) == (0, 0, 0)


@SETTINGS
@given(
    st.sampled_from(["small", "wide", "near_2_53"]),
    st.data(),
)
def test_hash_index_probe_matches_reference(pool, data):
    # the index the interpreter's hash_join tactic probes: same pair order
    build = data.draw(st.lists(POOLS[pool], max_size=40))
    probes = data.draw(st.lists(POOLS[pool], max_size=40))
    index = HashIndex(np.array(build, dtype=np.int64))
    probe_idx, row_idx = index.probe(np.array(probes, dtype=np.int64))
    assert list(zip(probe_idx.tolist(), row_idx.tolist())) == ref_join(
        [(v,) for v in probes], [(v,) for v in build]
    )
    member = index.contains(np.array(probes, dtype=np.int64))
    assert member.tolist() == [v in set(build) for v in probes]


# -- aggregates: state / merge / finish ----------------------------------------------


_AGG_FUNCS = ["count_star", "count", "sum", "avg", "min", "max", "median", "stddev", "var"]
_STRINGS = st.sampled_from(["", "a", "b", "ab", "Z"])


def _string_vec(values, dictionary):
    """A string vector: heap-backed (dictionary-encoded) or a plain object array."""
    if not dictionary:
        return V(T.STRING, np.array(values, dtype=object))
    heap = StringHeap()
    for value in reversed(values):  # heap offset order differs from value order
        heap.add(value)
    return V(T.STRING, np.array([heap.add(v) for v in values], dtype=np.int64), heap)


def _values_or_none(values, mask):
    out = values.tolist()
    if mask is None:
        return out
    return [None if null else v for v, null in zip(out, mask.tolist())]


@st.composite
def agg_inputs(draw):
    """(func, arg, gids, ngroups, cuts): one aggregate over random groups and
    random row-batch boundaries."""
    kind = draw(st.sampled_from(["INTEGER", "BIGINT", "DECIMAL", "STRING"]))
    n = draw(st.integers(0, 40))
    ngroups = draw(st.integers(1, 4))
    gids = np.array(draw(st.lists(st.integers(0, ngroups - 1), min_size=n, max_size=n)),
                    dtype=np.int64)
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    if kind == "STRING":
        func = draw(st.sampled_from(["count_star", "count", "min", "max"]))
        values = draw(st.lists(st.one_of(st.none(), _STRINGS), min_size=n, max_size=n))
        return func, _string_vec(values, draw(st.booleans())), gids, ngroups, cuts
    sql_type = {"INTEGER": T.INTEGER, "BIGINT": T.BIGINT, "DECIMAL": T.decimal(18, 2)}[kind]
    pool = draw(st.sampled_from([p for p in ("small", "wide", "near_2_53")
                                 if _fits(sql_type, p)]))
    # avg/stddev/var sum in float64, which re-associates across batches
    # once the sums pass 2^53
    funcs = [f for f in _AGG_FUNCS
             if pool != "near_2_53" or f not in ("avg", "stddev", "var")]
    func = draw(st.sampled_from(funcs))
    values = draw(st.lists(st.one_of(st.none(), POOLS[pool]), min_size=n, max_size=n))
    return func, _vec(sql_type, values), gids, ngroups, cuts


@SETTINGS
@given(agg_inputs())
def test_merged_states_finish_exactly_like_aggregate(case):
    func, arg, gids, ngroups, cuts = case
    expected, expected_nulls = ops.aggregate(func, arg, gids, ngroups)
    # every batch numbers its own groups, like a morsel does
    states, gid_maps = [], []
    bounds = [0, *cuts, len(gids)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        groups, local = np.unique(gids[start:stop], return_inverse=True)
        part = V(arg.type, arg.data[start:stop], arg.heap)
        states.append(ops.agg_state(func, part, local.astype(np.int64), len(groups)))
        gid_maps.append(groups)
    state = ops.agg_merge(func, states, gid_maps, ngroups)
    got, got_nulls = ops.agg_finish(func, arg.type, state, ngroups)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)
    if expected_nulls is None:
        assert got_nulls is None
    else:
        assert got_nulls.tolist() == expected_nulls.tolist()


@st.composite
def window_inputs(draw):
    """(arg, raw values, partition keys, order keys) over one value kind."""
    kind = draw(st.sampled_from(["BIGINT", "DECIMAL", "STRING", "STRING_DICT"]))
    n = draw(st.integers(1, 40))
    parts = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    orders = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    if kind.startswith("STRING"):
        values = draw(st.lists(st.one_of(st.none(), _STRINGS), min_size=n, max_size=n))
        arg = _string_vec(values, kind == "STRING_DICT")
    else:
        sql_type = T.BIGINT if kind == "BIGINT" else T.decimal(18, 2)
        values = draw(st.lists(st.one_of(st.none(), POOLS["near_2_53"]),
                               min_size=n, max_size=n))
        arg = _vec(sql_type, values)
    return arg, values, parts, orders


@SETTINGS
@given(window_inputs(), st.sampled_from(["min", "max"]),
       st.sampled_from([None, "rows", "range"]))
def test_window_minmax_matches_reference(case, func, unit):
    arg, values, parts, orders = case
    n = len(values)
    ctx = ops.window_context(
        [_vec(T.INTEGER, parts)], [_vec(T.INTEGER, orders)], [False], [True], n
    )
    frame = None if unit is None else (unit, ("unbounded_preceding",), ("current_row",))
    got, mask = ops.window_apply(func, arg, ctx, frame)

    def in_frame(i, j):
        if parts[j] != parts[i]:
            return False
        if unit is None:
            return True
        if unit == "range":
            return orders[j] <= orders[i]
        return (orders[j], j) <= (orders[i], i)

    pick = min if func == "min" else max
    expected = []
    for i in range(n):
        seen = [values[j] for j in range(n) if in_frame(i, j) and values[j] is not None]
        expected.append(pick(seen) if seen else None)
    assert _values_or_none(got, mask) == expected
