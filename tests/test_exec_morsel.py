"""Morsel-driven executor: equivalence, aggregate merges, stats, shutdown.

The tentpole property is executor transparency: every query must return
the same result whether it runs sequentially or morsel-parallel with
aggregate-state merges.  Integer, decimal, string, count, min/max, and
median aggregates are bit-identical by construction; float sums/averages
merge by re-associated addition, so comparisons normalize floats through
rounding.
"""

from __future__ import annotations

import glob
import os
import threading

import numpy as np
import pytest

from repro.core.database import Database
from repro.exec.fragments import analyze_program
from repro.exec.morsels import MIN_MORSEL_ROWS, morsel_bounds, pack_values
from repro.mal import operators as ops
from repro.mal.vectors import BoolVec, V
from repro.storage import types as T

#: knobs that force morsel execution even on tiny test tables
PARALLEL = dict(parallel=True, max_workers=4, min_parallel_rows=64,
                morsel_rows=173)


def _norm(rows):
    return [
        tuple(
            round(v, 6) if isinstance(v, float) else v for v in row
        )
        for row in rows
    ]


def _both(conn, sql, ordered=True):
    """(parallel rows, sequential rows) for one query on one connection."""
    db = conn._database
    db.config.parallel = True
    par = _norm(conn.execute(sql).fetchall())
    db.config.parallel = False
    seq = _norm(conn.execute(sql).fetchall())
    db.config.parallel = True
    if not ordered:
        par = sorted(par, key=repr)
        seq = sorted(seq, key=repr)
    return par, seq


# -- morsel splitting ---------------------------------------------------------


class TestMorselBounds:
    def test_covers_input_exactly(self):
        for n in (1, 7, 100, 64 * 1024, 64 * 1024 + 1, 1_000_000):
            bounds = morsel_bounds(n, 1 << 16, workers=4)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == n
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert stop == start

    def test_even_sizes(self):
        bounds = morsel_bounds(1_000_003, 1 << 16, workers=4)
        sizes = [stop - start for start, stop in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_widens_toward_workers(self):
        # barely past one morsel: widen so every worker gets a share
        bounds = morsel_bounds(70_000, 1 << 16, workers=4)
        assert len(bounds) == 4
        assert all(stop - start >= MIN_MORSEL_ROWS for start, stop in bounds)

    def test_no_widening_below_min_rows(self):
        # 2 morsels of >= MIN_MORSEL_ROWS beats 4 starved ones
        bounds = morsel_bounds(2 * MIN_MORSEL_ROWS, 100, workers=4)
        assert all(stop - start >= 1 for start, stop in bounds)

    def test_empty_and_tiny(self):
        assert morsel_bounds(0, 1 << 16) == []
        assert morsel_bounds(1, 1 << 16) == [(0, 1)]
        assert morsel_bounds(3, 1, workers=2) == [(0, 1), (1, 2), (2, 3)]


class TestPackValues:
    def test_bool_vec_valid_mix(self):
        a = BoolVec(np.array([True, False]))
        b = BoolVec(np.array([True]), np.array([False]))
        packed = pack_values([a, b])
        assert list(packed.truth) == [True, False, True]
        assert list(packed.valid) == [True, True, False]

    def test_vector_and_ids(self):
        a = V(T.INTEGER, np.array([1, 2], dtype=np.int32))
        b = V(T.INTEGER, np.array([3], dtype=np.int32))
        assert list(pack_values([a, b]).data) == [1, 2, 3]
        assert list(
            pack_values([np.array([0, 1]), np.array([4])])
        ) == [0, 1, 4]


# -- aggregate state / merge / finish ----------------------------------------


def _split_states(func, arg, gids, ngroups, cuts):
    """Aggregate states per slice plus identity gid maps."""
    states, maps = [], []
    for start, stop in cuts:
        part = None
        if arg is not None:
            part = V(arg.type, arg.data[start:stop], arg.heap)
        states.append(ops.agg_state(func, part, gids[start:stop], ngroups))
        maps.append(np.arange(ngroups, dtype=np.int64))
    return states, maps


def _merged(func, arg, gids, ngroups, cuts):
    states, maps = _split_states(func, arg, gids, ngroups, cuts)
    arg_type = arg.type if arg is not None else None
    state = ops.agg_merge(func, states, maps, ngroups)
    return ops.agg_finish(func, arg_type, state, ngroups)


_ALL_FUNCS = ["count_star", "count", "sum", "avg", "min", "max", "median",
              "stddev", "var"]

#: (type, raw storage values) per argument type; BIGINT straddles 2^53,
#: where float64 stops telling neighbours apart
_KERNEL_TYPES = {
    "INTEGER": (T.INTEGER, lambda rng, n: rng.integers(-50, 50, n)),
    "BIGINT": (T.BIGINT, lambda rng, n: 2**53 + rng.integers(-50, 50, n)),
    "DECIMAL": (T.decimal(18, 2), lambda rng, n: rng.integers(-10**6, 10**6, n)),
    "DATE": (T.DATE, lambda rng, n: rng.integers(0, 20000, n)),
    "DOUBLE": (T.DOUBLE, lambda rng, n: rng.normal(0, 100, n)),
}

#: INTEGER is covered by test_partial_matches_blocking_kernel; sum/avg/
#: median/stddev/var are not defined over DATE; over values near 2^53 the
#: variance formula cancels catastrophically on either path
_KERNEL_CASES = [
    (name, func)
    for name in _KERNEL_TYPES
    for func in _ALL_FUNCS
    if name != "INTEGER"
    and not (name == "DATE" and func not in ("count_star", "count", "min", "max"))
    and not (name == "BIGINT" and func in ("stddev", "var"))
]


@pytest.mark.parametrize("func", _ALL_FUNCS)
def test_partial_matches_blocking_kernel(func):
    _check_merge_matches_blocking("INTEGER", func)


@pytest.mark.parametrize("type_name,func", _KERNEL_CASES)
def test_merge_matches_blocking_kernel_typed(type_name, func):
    _check_merge_matches_blocking(type_name, func)


def _check_merge_matches_blocking(type_name, func):
    """Split-state-merge-finish equals one blocking ops.aggregate call."""
    rng = np.random.default_rng(11)
    n = 1000
    sql_type, draw = _KERNEL_TYPES[type_name]
    gids = rng.integers(0, 9, n).astype(np.int64)
    data = draw(rng, n).astype(sql_type.dtype)
    nulls = rng.random(n) < 0.1
    data[nulls] = sql_type.null_value
    arg = None if func == "count_star" else V(sql_type, data)

    expected, expected_nulls = ops.aggregate(func, arg, gids, 9)
    cuts = [(0, 250), (250, 251), (251, 1000)]
    got, got_nulls = _merged(func, arg, gids, 9, cuts)

    exact = func in ("count_star", "count", "sum", "min", "max")
    if exact and sql_type.category != T.TypeCategory.FLOAT:
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
    else:
        np.testing.assert_allclose(
            got.astype(np.float64), expected.astype(np.float64),
            rtol=1e-12, equal_nan=True,
        )
    if expected_nulls is None:
        assert got_nulls is None or not got_nulls.any()
    else:
        assert (got_nulls == expected_nulls).all()


def test_partial_sum_decimal_is_exact():
    dec = T.decimal(10, 2)
    data = np.array([110, 25, 7, 3], dtype=np.int64)  # 1.10+0.25+0.07+0.03
    gids = np.zeros(4, dtype=np.int64)
    arg = V(dec, data)
    expected, _ = ops.aggregate("sum", arg, gids, 1)
    got, _ = _merged("sum", arg, gids, 1, [(0, 2), (2, 4)])
    assert got[0] == expected[0] == 1.45


def test_partial_string_minmax_merge():
    arg = V(T.STRING, np.array(["pear", None, "apple", "zoo"], dtype=object))
    gids = np.array([0, 0, 1, 1], dtype=np.int64)
    expected, expected_nulls = ops.aggregate("min", arg, gids, 2)
    got, got_nulls = _merged("min", arg, gids, 2, [(0, 2), (2, 4)])
    assert list(got) == list(expected) == ["pear", "apple"]
    assert not got_nulls.any() and not expected_nulls.any()


def test_partial_empty_groups_stay_null():
    arg = V(T.INTEGER, np.array([T.INTEGER.null_value] * 4, dtype=np.int32))
    gids = np.array([0, 0, 1, 1], dtype=np.int64)
    _, nulls = _merged("sum", arg, gids, 2, [(0, 2), (2, 4)])
    assert nulls.all()


# -- fragment analysis / EXPLAIN ---------------------------------------------


@pytest.fixture
def pdb():
    database = Database(None, **PARALLEL)
    yield database
    database.shutdown()


@pytest.fixture
def pconn(pdb):
    connection = pdb.connect()
    connection.execute("CREATE TABLE t (a INTEGER, b DOUBLE, c VARCHAR)")
    values = ", ".join(
        f"({i % 7}, {i * 0.25}, 'g{i % 5}')" for i in range(2000)
    )
    connection.execute("INSERT INTO t VALUES " + values)
    yield connection
    connection.close()


class TestFragmentAnalysis:
    def test_explain_renders_fragment(self, pconn):
        lines = [
            r[0] for r in pconn.execute(
                "EXPLAIN SELECT c, sum(a) FROM t WHERE a > 1 GROUP BY c"
            ).fetchall()
        ]
        assert any("fragment over t" in line for line in lines)
        assert any(
            "partial aggregate group-by merge" in line for line in lines
        )

    def test_explain_pack_breaker_for_order_by(self, pconn):
        lines = [
            r[0] for r in pconn.execute(
                "EXPLAIN SELECT a, b FROM t WHERE a > 1 ORDER BY b"
            ).fetchall()
        ]
        assert any("pack morsels" in line for line in lines)

    def test_distinct_aggregate_falls_back_to_pack(self, pconn):
        lines = [
            r[0] for r in pconn.execute(
                "EXPLAIN SELECT count(DISTINCT a) FROM t WHERE b > 1"
            ).fetchall()
        ]
        joined = "\n".join(lines)
        assert "fragment over t" in joined
        assert "partial aggregate" not in joined

    def test_plan_is_cached_on_program(self, pconn):
        from repro.mal.codegen import compile_select
        from repro.algebra.binder import bind_statement
        from repro.algebra.optimizer import optimize
        from repro.sql.parser import parse_one

        txn = pconn._database.txn_manager.begin()
        try:
            bound = bind_statement(
                parse_one("SELECT sum(a) FROM t WHERE a > 1"),
                lambda name: txn.resolve_table(name).schema,
            )
            program = compile_select(optimize(bound, lambda name: 2000))
            assert analyze_program(program) is analyze_program(program)
        finally:
            pconn._database.txn_manager.rollback(txn)


# -- end-to-end equivalence ---------------------------------------------------


EQUIV_QUERIES = [
    ("SELECT c, sum(a), avg(b), count(*), min(a), max(b), median(b) "
     "FROM t WHERE a > 1 GROUP BY c ORDER BY c", True),
    ("SELECT sum(b), count(*), min(b), max(a), stddev(b), var(b) "
     "FROM t WHERE a <= 5", True),
    ("SELECT a, b FROM t WHERE a = 3 AND b < 100 ORDER BY b LIMIT 9", True),
    ("SELECT count(*) FROM t WHERE c = 'g1'", True),
    ("SELECT a, count(*) FROM t GROUP BY a", False),
    ("SELECT sum(a), avg(b) FROM t WHERE a > 100", True),  # empty input
    ("SELECT c, min(c), max(c) FROM t GROUP BY c ORDER BY c", True),
    ("SELECT DISTINCT a FROM t WHERE a > 2 ORDER BY a", True),
    ("SELECT count(DISTINCT a), sum(a) FROM t WHERE b > 1", True),
    ("SELECT t1.a, count(*) FROM t t1, t t2 "
     "WHERE t1.a = t2.a AND t1.b < 5 AND t2.b < 5 "
     "GROUP BY t1.a ORDER BY t1.a", True),
    ("SELECT upper(c), a + 1 FROM t WHERE b BETWEEN 10 AND 20 "
     "ORDER BY a, b", True),
]


@pytest.mark.parametrize("sql,ordered", EQUIV_QUERIES)
def test_morsel_matches_sequential(pconn, sql, ordered):
    par, seq = _both(pconn, sql, ordered)
    assert par == seq


def test_morsel_with_deep_spans_matches(pconn):
    db = pconn._database
    db.span_tracer.enabled = True
    try:
        par, seq = _both(
            pconn,
            "SELECT c, sum(a), count(*) FROM t WHERE a > 0 "
            "GROUP BY c ORDER BY c",
        )
        assert par == seq
        kinds = {s.kind for s in db.span_tracer.events()}
        assert "fragment" in kinds and "morsel" in kinds
    finally:
        db.span_tracer.enabled = False


# -- workload equivalence -----------------------------------------------------


@pytest.fixture(scope="module")
def tpch_pair(tpch_tiny):
    """(sequential conn, morsel conn) over the same TPC-H data."""
    from repro.workloads.tpch import load

    seq_db = Database(None)
    par_db = Database(None, **PARALLEL)
    seq = seq_db.connect()
    par = par_db.connect()
    load(seq, tpch_tiny)
    load(par, tpch_tiny)
    yield seq, par
    seq_db.shutdown()
    par_db.shutdown()


@pytest.mark.parametrize("number", [1, 3, 6, 10])
def test_tpch_queries_match(tpch_pair, number):
    from repro.workloads.tpch import QUERIES

    seq, par = tpch_pair
    assert _norm(par.execute(QUERIES[number]).fetchall()) == _norm(
        seq.execute(QUERIES[number]).fetchall()
    )


ACS_QUERIES = [
    "SELECT st, sum(pwgtp) FROM acs GROUP BY st ORDER BY st",
    "SELECT sum(pwgtp), count(*) FROM acs WHERE agep >= 65",
    "SELECT st, avg(pincp), median(agep) FROM acs "
    "WHERE esr = 1 GROUP BY st ORDER BY st",
    "SELECT count(*) FROM acs WHERE pincp < 15000 AND agep > 18",
]


@pytest.mark.parametrize("sql", ACS_QUERIES)
def test_acs_statistics_queries_match(sql):
    from repro.workloads.acs.gen import generate_acs

    data = generate_acs(3000, seed=3)
    subset = {k: data[k] for k in ("st", "agep", "pwgtp", "pincp", "esr")}
    database = Database(None, **PARALLEL)
    try:
        connection = database.connect()
        connection.execute(
            "CREATE TABLE acs (st INTEGER, agep INTEGER, pwgtp INTEGER, "
            "pincp DOUBLE, esr INTEGER)"
        )
        connection.append("acs", subset)
        par, seq = _both(connection, sql)
        assert par == seq
    finally:
        database.shutdown()


# -- fuzz corpus under the morsel executor ------------------------------------


_CORPUS = sorted(
    glob.glob(
        os.path.join(os.path.dirname(__file__), "fuzz_corpus", "*.sql")
    )
)


def _corpus_outcome(statements, query, **config):
    database = Database(None, **config)
    try:
        connection = database.connect()
        for statement in statements:
            connection.execute(statement)
        # key=repr: NULLs make rows incomparable under plain tuple order
        return sorted(_norm(connection.execute(query).fetchall()), key=repr)
    finally:
        database.shutdown()


@pytest.mark.parametrize(
    "path", _CORPUS, ids=[os.path.basename(p) for p in _CORPUS]
)
def test_corpus_matches_under_morsel(path):
    from tests.test_fuzz_corpus import _parse

    headers, statements = _parse(path)
    if headers.get("expect-error"):
        pytest.skip("error-expectation entry; no result to compare")
    *setup, query = statements
    # corpus tables are tiny: shrink every threshold so morsels engage
    par = _corpus_outcome(
        setup, query, parallel=True, max_workers=4, min_parallel_rows=1,
        morsel_rows=2,
    )
    seq = _corpus_outcome(setup, query)
    assert par == seq


# -- executor state / observability ------------------------------------------


def test_exec_stats_and_metrics_advance(pconn):
    db = pconn._database
    before = db.exec_stats.snapshot()
    pconn.execute(
        "SELECT c, sum(a) FROM t WHERE a > 0 GROUP BY c"
    ).fetchall()
    after = db.exec_stats.snapshot()
    assert after["fragments_completed"] > before["fragments_completed"]
    assert after["morsels_completed"] > before["morsels_completed"]
    assert after["queue_depth"] == 0
    assert after["rows_processed"] > before["rows_processed"]

    rows = pconn.execute("SELECT * FROM sys.exec_stats").fetchall()
    assert len(rows) == 1
    live = dict(zip(after.keys(), rows[0]))
    assert live["fragments_completed"] >= after["fragments_completed"]

    metric_rows = dict(
        (name, value)
        for name, _, _, value in pconn.execute(
            "SELECT metric, kind, label, value FROM sys.metrics"
        ).fetchall()
    )
    assert metric_rows["exec_fragments"] >= 1
    assert metric_rows["exec_morsels"] >= 2
    assert "exec_worker_utilization" in metric_rows


def test_explain_analyze_shows_fragment_spans(pconn):
    lines = [
        r[0] for r in pconn.execute(
            "EXPLAIN ANALYZE SELECT sum(a) FROM t WHERE a > 1"
        ).fetchall()
    ]
    assert any("fragment" in line for line in lines)
    assert any("morsel" in line for line in lines)


# -- shutdown semantics -------------------------------------------------------


class TestShutdown:
    def test_idempotent(self):
        database = Database(None)
        database.shutdown()
        database.shutdown()  # second call is a no-op, not an error

    def test_concurrent_callers(self):
        database = Database(None)
        errors = []

        def call():
            try:
                database.shutdown()
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=call) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert not database._open

    def test_waits_for_in_flight_pool_work(self):
        database = Database(None, parallel=True, max_workers=2)
        started = threading.Event()
        finished = []

        def task():
            started.set()
            import time

            time.sleep(0.2)
            finished.append(True)

        database.thread_pool.submit(task)
        started.wait(timeout=5)
        database.shutdown()  # must block until the task completes
        assert finished == [True]

    def test_connect_after_shutdown_fails(self):
        from repro.errors import StartupError

        database = Database(None)
        database.shutdown()
        with pytest.raises(StartupError):
            database.connect()
