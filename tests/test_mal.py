"""Tests for the MAL layer: codegen/CSE, rendering, parallel chunking."""

import numpy as np
import pytest

from repro.algebra.binder import bind_statement
from repro.algebra.optimizer import optimize
from repro.errors import QueryTimeoutError
from repro.mal.codegen import compile_select
from repro.mal.vectors import BoolVec, V, vec_to_column
from repro.sql.parser import parse_one
from repro.storage import types as T
from repro.storage.catalog import ColumnDef, TableSchema


def compile_sql(sql, schemas):
    lookup = lambda name: schemas[name.lower()]  # noqa: E731
    bound = bind_statement(parse_one(sql), lookup)
    optimized = optimize(bound, lambda name: 1000)
    return compile_select(optimized)


@pytest.fixture
def schemas():
    return {
        "t": TableSchema(
            "t",
            [
                ColumnDef("a", T.INTEGER),
                ColumnDef("b", T.DOUBLE),
                ColumnDef("c", T.STRING),
            ],
        )
    }


class TestCodegen:
    def test_common_subexpression_elimination(self, schemas):
        program = compile_sql("SELECT a + 1, a + 1 FROM t", schemas)
        maps = [i for i in program.instructions if i.op == "map"]
        assert len(maps) == 1  # the duplicate projection shares one var

    def test_binds_deduplicated(self, schemas):
        program = compile_sql("SELECT a, a FROM t", schemas)
        binds = [i for i in program.instructions if i.op == "bind"]
        assert len(binds) == 1

    def test_projection_pushdown_limits_binds(self, schemas):
        program = compile_sql("SELECT a FROM t WHERE a > 1", schemas)
        binds = [i for i in program.instructions if i.op == "bind"]
        assert len(binds) == 1  # neither b nor c is ever bound

    def test_parallel_marking(self, schemas):
        program = compile_sql("SELECT a * 2 FROM t WHERE a > 1", schemas)
        by_op = {}
        for instruction in program.instructions:
            by_op.setdefault(instruction.op, instruction)
        assert by_op["map"].parallelizable
        assert by_op["pred"].parallelizable
        assert by_op["take"].parallelizable
        assert not by_op["result"].parallelizable

    def test_blocking_ops_not_parallel(self, schemas):
        program = compile_sql(
            "SELECT median(b) FROM t GROUP BY a ORDER BY 1", schemas
        )
        for instruction in program.instructions:
            if instruction.op in ("groupby", "agg", "sort"):
                assert not instruction.parallelizable

    def test_render_readable(self, schemas):
        program = compile_sql("SELECT a FROM t WHERE a > 5", schemas)
        text = program.render()
        assert "bind(t" in text
        assert ":= pred(" in text
        assert "{parallel}" in text

    def test_result_carries_names(self, schemas):
        program = compile_sql("SELECT a AS alpha FROM t", schemas)
        assert program.column_names == ["alpha"]


class TestParallelExecution:
    """The 'mitosis' of paper Figure 2, run by the morsel executor."""

    @staticmethod
    def _exec_stats(conn):
        return conn.query(
            "SELECT fragments_completed, morsels_completed FROM sys.exec_stats"
        ).fetchall()[0]

    def _query(self, parallel):
        """Both answers, and the (fragments, morsels) each query ran."""
        from repro.core.database import Database

        db = Database(
            None,
            parallel=parallel,
            min_parallel_rows=1024,
            max_workers=4,
        )
        conn = db.connect()
        conn.execute("CREATE TABLE p (i BIGINT)")
        rng = np.random.default_rng(3)
        conn.append("p", {"i": rng.integers(0, 10_000, 200_000)})
        # the paper's Figure 2 query
        result = conn.query("SELECT median(sqrt(i * 2)) FROM p").scalar()
        after_median = self._exec_stats(conn)
        count = conn.query("SELECT count(*) FROM p WHERE i > 5000").scalar()
        after_count = self._exec_stats(conn)
        db.shutdown()
        ran = [
            after_median,
            tuple(b - a for a, b in zip(after_median, after_count)),
        ]
        return (result, count), ran

    def test_parallel_equals_sequential(self):
        parallel, parallel_ran = self._query(True)
        sequential, sequential_ran = self._query(False)
        assert parallel == sequential
        # each query ran as one fragment split over several morsels
        for fragments, morsels in parallel_ran:
            assert fragments == 1 and morsels > 1
        assert sequential_ran == [(0, 0), (0, 0)]

    def test_small_columns_not_chunked(self):
        from repro.core.database import Database

        db = Database(None, parallel=True, min_parallel_rows=1 << 20)
        conn = db.connect()
        conn.execute("CREATE TABLE s (i INTEGER)")
        conn.append("s", {"i": np.arange(100, dtype=np.int32)})
        assert conn.query("SELECT sum(i) FROM s").scalar() == 4950
        assert self._exec_stats(conn) == (0, 0)
        db.shutdown()


class TestTimeout:
    def test_query_timeout_raises(self):
        from repro.core.database import Database

        db = Database(None, timeout=0.0001)
        conn = db.connect()
        conn._database.config.timeout = None
        conn.execute("CREATE TABLE t (a INTEGER)")
        conn.append("t", {"a": np.arange(50_000, dtype=np.int32)})
        conn._database.config.timeout = 0.000001
        with pytest.raises(QueryTimeoutError):
            conn.query("SELECT count(*) FROM t, t t2 WHERE t.a = t2.a")
        db.shutdown()


class TestVectors:
    def test_boolvec_kleene_and(self):
        truth_a = np.array([True, True, False])
        valid_a = np.array([True, False, True])
        a = BoolVec(truth_a, valid_a)
        b = BoolVec(np.array([True, False, False]))
        combined = BoolVec.and_(a, b)
        # unknown AND false = false (valid), unknown AND true = unknown
        assert combined.definite().tolist() == [True, False, False]
        # row 1: a unknown, b false -> definitely false, so valid
        assert combined.valid[1]

    def test_boolvec_kleene_or(self):
        a = BoolVec(np.array([False, False]), np.array([False, False]))
        b = BoolVec(np.array([True, False]))
        combined = BoolVec.or_(a, b)
        # unknown OR true = true; unknown OR false = unknown
        assert combined.definite().tolist() == [True, False]
        assert combined.valid.tolist() == [True, False]

    def test_negate_keeps_validity(self):
        vec = BoolVec(np.array([True, False]), np.array([True, False]))
        negated = vec.negate()
        assert negated.definite().tolist() == [False, False]

    def test_vec_to_column_scalar_broadcast(self):
        column = vec_to_column(V(T.INTEGER, 7), 3)
        assert column.to_python() == [7, 7, 7]
        column = vec_to_column(V(T.STRING, "x"), 2)
        assert column.to_python() == ["x", "x"]
        column = vec_to_column(V(T.DOUBLE, None), 2)
        assert column.to_python() == [None, None]
