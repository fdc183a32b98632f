"""Tests for the observability layer: tracing, EXPLAIN [ANALYZE], stats.

The tracer reproduces MonetDB's TRACE: per-instruction wall time,
input/output cardinalities and the tactical decision the interpreter made
(hash vs. merge join, index usage, join and grouping kernel paths).
These tests pin the contract: no tracing work when tracing is off, and
trace numbers that agree with the actual result when it is on.
"""

import pytest

from repro.errors import InterfaceError
from repro.obs import EngineStats, QueryTrace
from repro.workloads.tpch import load, query


class TestEngineStats:
    def test_counters_start_at_zero(self):
        stats = EngineStats()
        snap = stats.snapshot()
        assert snap["queries"] == 0
        assert snap["rows_returned"] == 0

    def test_incr_and_reset(self):
        stats = EngineStats()
        stats.incr("queries")
        stats.incr("rows_returned", 42)
        assert stats.get("queries") == 1
        assert stats.get("rows_returned") == 42
        stats.reset()
        assert stats.get("rows_returned") == 0

    def test_dynamic_counter_registration(self):
        # incr() and get() agree on unknown names: first touch registers
        # the counter instead of raising (matching get()'s silent zero).
        stats = EngineStats()
        assert stats.get("bogus") == 0
        stats.incr("bogus")
        stats.incr("bogus", 2)
        assert stats.get("bogus") == 3
        snap = stats.snapshot()
        assert snap["bogus"] == 3
        # predeclared counters keep declaration order; dynamic ones follow
        names = list(snap)
        assert names.index("queries") < names.index("bogus")
        stats.incr("aaa_dynamic")
        names = list(stats.snapshot())
        assert names.index("bogus") > names.index("aaa_dynamic") > names.index(
            "slow_queries"
        )


class TestDatabaseStats:
    def test_query_counters(self, conn, db):
        conn.execute("CREATE TABLE s (v INTEGER)")
        conn.execute("INSERT INTO s VALUES (1), (2), (3)")
        result = conn.query("SELECT v FROM s ORDER BY v")
        snap = db.stats()
        assert snap["queries"] == 1
        assert snap["statements"] == 3
        assert snap["rows_appended"] == 3
        assert snap["rows_returned"] == 3
        assert snap["txn_commits"] >= 2  # DDL + INSERT + SELECT autocommits
        assert snap["rows_exported"] == 0
        result.fetchall()
        assert db.stats()["rows_exported"] == 3

    def test_append_counts_rows(self, conn, db):
        import numpy as np

        conn.execute("CREATE TABLE a (v INTEGER)")
        conn.append("a", {"v": np.arange(7, dtype=np.int32)})
        assert db.stats()["rows_appended"] == 7

    def test_abort_counter(self, db):
        first = db.connect()
        second = db.connect()
        first.execute("CREATE TABLE c (v INTEGER)")
        first.execute("INSERT INTO c VALUES (1)")
        first.execute("BEGIN")
        first.execute("INSERT INTO c VALUES (2)")
        second.execute("INSERT INTO c VALUES (3)")  # advances the version
        from repro.errors import ConflictError

        with pytest.raises(ConflictError):
            first.execute("COMMIT")
        assert db.stats()["txn_aborts"] == 1
        first.close()
        second.close()

    def test_untraced_queries_leave_trace_counter_alone(self, conn, db):
        conn.execute("CREATE TABLE u (v INTEGER)")
        conn.query("SELECT v FROM u")
        assert db.stats()["traced_queries"] == 0


class TestQueryTrace:
    def test_trace_off_records_nothing(self, conn):
        """The default path must not produce any trace records at all."""
        from repro.mal.interpreter import ExecutionContext

        conn.execute("CREATE TABLE q (v INTEGER)")
        conn.execute("INSERT INTO q VALUES (1), (2)")
        ctx = ExecutionContext(
            conn._database, conn._database.txn_manager.begin(),
            conn._database.config,
        )
        assert ctx.trace is None

    def test_trace_query_returns_result_and_trace(self, conn):
        conn.execute("CREATE TABLE t (v INTEGER)")
        conn.execute("INSERT INTO t VALUES (1), (2), (3), (4)")
        result, trace = conn.trace_query("SELECT v FROM t WHERE v > 1")
        assert result.nrows == 3
        assert isinstance(trace, QueryTrace)
        assert trace.result_rows == 3
        assert len(trace.records) > 0
        assert trace.total_ns > 0
        assert all(rec.wall_ns >= 0 for rec in trace.records)
        # the result instruction's output cardinality is the result size
        assert trace.records[-1].op == "result"
        assert trace.records[-1].rows_out == 3

    def test_trace_records_tactics(self, conn):
        conn.execute("CREATE TABLE l (k INTEGER, v INTEGER)")
        conn.execute("CREATE TABLE r (k INTEGER, w INTEGER)")
        conn.execute("INSERT INTO l VALUES (1, 10), (2, 20), (3, 30)")
        conn.execute("INSERT INTO r VALUES (2, 200), (3, 300), (4, 400)")
        _, trace = conn.trace_query(
            "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k"
        )
        joins = [rec for rec in trace.records if rec.op == "join"]
        # small dense INTEGER keys: the direct-address build/probe kernel
        assert joins and joins[0].tactic == "direct"
        _, trace = conn.trace_query(
            "SELECT l.v FROM l JOIN r ON l.k = r.k * 1000000"
        )
        joins = [rec for rec in trace.records if rec.op == "join"]
        assert joins and joins[0].tactic == "sorted_probe"
        conn.execute("CREATE TABLE s (k VARCHAR, w INTEGER)")
        conn.execute("INSERT INTO s VALUES ('2', 1)")
        _, trace = conn.trace_query(
            "SELECT l.v FROM l JOIN s ON CAST(l.k AS VARCHAR) = s.k"
        )
        joins = [rec for rec in trace.records if rec.op == "join"]
        assert joins and joins[0].tactic == "sort_merge"
        _, trace = conn.trace_query("SELECT k, count(*) FROM l GROUP BY k")
        groups = [rec for rec in trace.records if rec.op == "groupby"]
        assert groups and groups[0].tactic in ("dense", "hash_index")
        _, trace = conn.trace_query(
            "SELECT k * 1000000, count(*) FROM l GROUP BY k * 1000000"
        )
        groups = [rec for rec in trace.records if rec.op == "groupby"]
        assert groups and groups[0].tactic == "sort"

    def test_summary_and_render(self, conn):
        conn.execute("CREATE TABLE s (v INTEGER)")
        conn.execute("INSERT INTO s VALUES (5), (6)")
        _, trace = conn.trace_query("SELECT sum(v) FROM s")
        summary = trace.summary()
        assert summary["instructions"] == len(trace.records)
        assert summary["result_rows"] == 1
        assert "agg" in summary["by_op"]
        text = trace.render()
        assert "rows_out" in text
        assert "total:" in text
        assert len(trace.top_instructions(2)) <= 2

    def test_traced_queries_counter(self, conn, db):
        conn.execute("CREATE TABLE tc (v INTEGER)")
        conn.trace_query("SELECT v FROM tc")
        conn.query("EXPLAIN ANALYZE SELECT v FROM tc")
        assert db.stats()["traced_queries"] == 2


class TestExplain:
    def test_explain_renders_plan_and_program(self, conn):
        conn.execute("CREATE TABLE e (a INTEGER, b VARCHAR(5))")
        result = conn.query("EXPLAIN SELECT a FROM e WHERE a > 1 ORDER BY a")
        assert result.names == ["explain"]
        text = "\n".join(v for (v,) in result.fetchall())
        assert "Scan" in text       # bound plan
        assert "result" in text     # MAL program
        # EXPLAIN must not execute: no query counted
        assert conn._database.stats()["queries"] == 0

    def test_explain_analyze_executes_and_annotates(self, conn):
        conn.execute("CREATE TABLE ea (v INTEGER)")
        conn.execute("INSERT INTO ea VALUES (1), (2), (3)")
        result = conn.query("EXPLAIN ANALYZE SELECT v FROM ea WHERE v >= 2")
        text = "\n".join(v for (v,) in result.fetchall())
        assert "time_us" in text
        assert "2 result rows" in text

    def test_explain_rejects_non_select(self, conn):
        conn.execute("CREATE TABLE ns (v INTEGER)")
        with pytest.raises(InterfaceError, match="EXPLAIN only supports"):
            conn.execute("EXPLAIN INSERT INTO ns VALUES (1)")

    def test_explain_keyword_not_reserved_harmfully(self, conn):
        # plain statements still parse after the keyword addition
        conn.execute("CREATE TABLE ok (v INTEGER)")
        assert conn.query("SELECT count(*) FROM ok").scalar() == 0


class TestTraceCardinalities:
    """EXPLAIN ANALYZE numbers must agree with actual result sizes (TPC-H)."""

    @pytest.mark.parametrize("number", [1, 3, 6])
    def test_tpch_trace_consistent(self, db, tpch_tiny, number):
        conn = db.connect()
        load(conn, tpch_tiny)
        sql = query(number)
        expected = conn.query(sql)
        result, trace = conn.trace_query(sql)
        assert result.nrows == expected.nrows
        assert trace.result_rows == expected.nrows
        final = trace.records[-1]
        assert final.op == "result"
        assert final.rows_out == expected.nrows
        # every executed instruction was profiled with sane numbers
        assert all(rec.rows_in >= 0 and rec.rows_out >= 0
                   for rec in trace.records)
        assert trace.total_ns >= sum(r.wall_ns for r in trace.records) * 0.5
        conn.close()


class TestServerStats:
    def test_wire_byte_counters(self, tmp_path):
        from repro.server import RemoteConnection, Server

        with Server(
            engine="columnar", protocol="pg", directory=str(tmp_path / "s")
        ) as server:
            client = RemoteConnection("127.0.0.1", server.port, "pg")
            client.execute("CREATE TABLE w (v INTEGER)")
            client.execute("INSERT INTO w VALUES (1), (2)")
            client.query("SELECT v FROM w ORDER BY v")
            snap = server._database.stats()
            assert snap["bytes_received"] > 0
            assert snap["bytes_sent"] > 0
            # the C message now carries rows + server-side execution time
            assert client.last_status["rows"] == 2
            assert client.last_status["time_us"] is not None
            assert client.last_status["time_us"] >= 0
            client.close()
