"""Tests for the row-store substrate: records, B+tree, pager, engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CatalogError, DatabaseError
from repro.rowstore import RowDatabase
from repro.rowstore.btree import BPlusTree, LEAF_CAPACITY
from repro.rowstore.pager import PageFile, pack_pages, unpack_pages
from repro.rowstore.record import decode_record, encode_record


class TestRecordCodec:
    def test_round_trip_all_kinds(self):
        row = (1, None, 2.5, "text", b"\x00blob", -(2**62), "")
        assert decode_record(encode_record(row)) == row

    def test_unicode(self):
        row = ("héllo wörld ∑",)
        assert decode_record(encode_record(row)) == row

    def test_unsupported_type(self):
        with pytest.raises(DatabaseError):
            encode_record((object(),))

    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.integers(-(2**62), 2**62),
                st.floats(allow_nan=False),
                st.text(max_size=30),
                st.binary(max_size=30),
            ),
            max_size=10,
        )
    )
    def test_round_trip_property(self, values):
        row = tuple(values)
        assert decode_record(encode_record(row)) == row


class TestBPlusTree:
    def test_insert_and_get(self):
        tree = BPlusTree()
        for i in range(500):
            tree.insert(i, f"v{i}".encode())
        assert tree.get(250) == b"v250"
        assert tree.get(9999) is None
        assert len(tree) == 500

    def test_scan_in_key_order(self):
        tree = BPlusTree()
        import random

        keys = list(range(300))
        random.Random(7).shuffle(keys)
        for key in keys:
            tree.insert(key, str(key).encode())
        scanned = [k for k, _ in tree.scan()]
        assert scanned == sorted(keys)

    def test_duplicate_rejected(self):
        tree = BPlusTree()
        tree.insert(1, b"a")
        with pytest.raises(DatabaseError):
            tree.insert(1, b"b")

    def test_delete(self):
        tree = BPlusTree()
        for i in range(100):
            tree.insert(i, b"x")
        assert tree.delete(50)
        assert not tree.delete(50)
        assert tree.get(50) is None
        assert len(tree) == 99

    def test_splits_create_depth(self):
        tree = BPlusTree()
        for i in range(LEAF_CAPACITY * 10):
            tree.insert(i, b"r")
        assert tree.depth() >= 2
        assert [k for k, _ in tree.scan()] == list(range(LEAF_CAPACITY * 10))

    @given(st.sets(st.integers(0, 10_000), max_size=400))
    @settings(max_examples=30, deadline=None)
    def test_scan_sorted_property(self, keys):
        tree = BPlusTree()
        for key in keys:
            tree.insert(key, b"")
        assert [k for k, _ in tree.scan()] == sorted(keys)


class TestPager:
    def test_pack_unpack(self):
        records = [f"record-{i}".encode() * (i % 7 + 1) for i in range(500)]
        assert unpack_pages(pack_pages(records)) == records

    def test_oversized_record_gets_own_page(self):
        records = [b"x" * 10_000, b"small"]
        assert unpack_pages(pack_pages(records)) == records

    def test_page_file_round_trip(self, tmp_path):
        pagefile = PageFile(tmp_path / "f.db")
        content = {
            "t": {
                "schema": [{"name": "a", "type": "INTEGER", "not_null": False}],
                "records": [encode_record((i,)) for i in range(100)],
            }
        }
        pagefile.write(content)
        loaded = pagefile.read()
        assert loaded["t"]["records"] == content["t"]["records"]
        assert loaded["t"]["schema"] == content["t"]["schema"]


class TestRowEngine:
    @pytest.fixture
    def rc(self):
        database = RowDatabase()
        yield database.connect()
        database.close()

    def test_create_insert_select(self, rc):
        rc.execute("CREATE TABLE t (a INTEGER, b VARCHAR(10), c DOUBLE)")
        rc.execute("INSERT INTO t VALUES (1, 'x', 0.5), (2, NULL, NULL)")
        rows = rc.query("SELECT * FROM t ORDER BY a").fetchall()
        assert rows == [(1, "x", 0.5), (2, None, None)]

    def test_aggregates(self, rc):
        rc.execute("CREATE TABLE a (k INTEGER, v DECIMAL(10,2))")
        rc.execute(
            "INSERT INTO a VALUES (1, 1.50), (1, 2.50), (2, 10.00), (2, NULL)"
        )
        rows = rc.query(
            "SELECT k, sum(v), count(v), count(*), avg(v), min(v), max(v) "
            "FROM a GROUP BY k ORDER BY k"
        ).fetchall()
        assert rows[0] == (1, 4.0, 2, 2, 2.0, 1.5, 2.5)
        assert rows[1] == (2, 10.0, 1, 2, 10.0, 10.0, 10.0)

    def test_exact_sums_match_columnar_engine(self, rc):
        # 2^53 + 1 has no float64 neighbour and 0.10 + 0.20 is not 0.3 in
        # float64: both sums must be accumulated in storage integers
        from repro.core.database import Database

        setup = [
            "CREATE TABLE x (k BIGINT, d DECIMAL(18,2))",
            "INSERT INTO x VALUES (9007199254740993, 0.10), (1, 0.20)",
        ]
        query = (
            "SELECT sum(k), sum(d), avg(d), sum(DISTINCT k), sum(DISTINCT d), "
            "median(d) FROM x"
        )
        columnar = Database(None)
        try:
            cc = columnar.connect()
            for statement in setup:
                rc.execute(statement)
                cc.execute(statement)
            expected = cc.query(query).fetchall()
        finally:
            columnar.shutdown()
        assert rc.query(query).fetchall() == expected
        assert expected == [
            (9007199254740994, 0.3, 0.15, 9007199254740994, 0.3, 0.15)
        ]

    def test_median_and_distinct_aggregates(self, rc):
        rc.execute("CREATE TABLE m (v INTEGER)")
        rc.execute("INSERT INTO m VALUES (1), (2), (2), (10)")
        assert rc.query("SELECT median(v) FROM m").scalar() == 2.0
        assert rc.query("SELECT count(DISTINCT v) FROM m").scalar() == 3

    def test_joins_and_subqueries(self, rc):
        rc.execute("CREATE TABLE l (a INTEGER)")
        rc.execute("CREATE TABLE r (a INTEGER)")
        rc.execute("INSERT INTO l VALUES (1), (2), (3)")
        rc.execute("INSERT INTO r VALUES (2), (3), (4)")
        assert rc.query(
            "SELECT count(*) FROM l, r WHERE l.a = r.a"
        ).scalar() == 2
        assert rc.query(
            "SELECT l.a FROM l WHERE NOT EXISTS "
            "(SELECT 1 FROM r WHERE r.a = l.a)"
        ).fetchall() == [(1,)]
        assert rc.query(
            "SELECT a FROM l WHERE a = (SELECT min(a) FROM r)"
        ).fetchall() == [(2,)]

    def test_update_delete(self, rc):
        rc.execute("CREATE TABLE ud (a INTEGER, b INTEGER)")
        rc.execute("INSERT INTO ud VALUES (1, 0), (2, 0), (3, 0)")
        rc.execute("UPDATE ud SET b = a * 10 WHERE a > 1")
        rc.execute("DELETE FROM ud WHERE a = 3")
        rows = rc.query("SELECT a, b FROM ud ORDER BY a").fetchall()
        assert rows == [(1, 0), (2, 20)]

    def test_not_null(self, rc):
        rc.execute("CREATE TABLE nn (a INTEGER NOT NULL)")
        with pytest.raises(CatalogError):
            rc.execute("INSERT INTO nn VALUES (NULL)")

    def test_append_bulk(self, rc):
        rc.execute("CREATE TABLE bulk (a INTEGER, s VARCHAR(8), d DATE)")
        n = rc.append(
            "bulk",
            {
                "a": np.arange(10, dtype=np.int32),
                "s": np.array([f"s{i}" for i in range(10)], dtype=object),
                "d": np.full(10, 100, dtype=np.int32),
            },
        )
        assert n == 10
        row = rc.query("SELECT d FROM bulk WHERE a = 3").fetchone()
        assert row[0].isoformat() == "1970-04-11"

    def test_order_by_with_nulls(self, rc):
        rc.execute("CREATE TABLE o (v INTEGER)")
        rc.execute("INSERT INTO o VALUES (2), (NULL), (1)")
        rows = rc.query("SELECT v FROM o ORDER BY v NULLS FIRST").fetchall()
        assert rows == [(None,), (1,), (2,)]
        rows = rc.query("SELECT v FROM o ORDER BY v DESC NULLS LAST").fetchall()
        assert rows == [(2,), (1,), (None,)]

    def test_case_and_functions(self, rc):
        rc.execute("CREATE TABLE f (s VARCHAR(10), d DATE)")
        rc.execute("INSERT INTO f VALUES ('abc', DATE '1999-05-04')")
        row = rc.query(
            "SELECT upper(s), extract(year FROM d), "
            "CASE WHEN length(s) = 3 THEN 'three' ELSE 'other' END FROM f"
        ).fetchone()
        assert row == ("ABC", 1999, "three")


class TestRowPersistence:
    def test_durability_via_journal(self, tmp_path):
        path = tmp_path / "p.db"
        database = RowDatabase(path)
        connection = database.connect()
        connection.execute("CREATE TABLE t (a INTEGER)")
        connection.execute("INSERT INTO t VALUES (1), (2)")
        connection.execute("UPDATE t SET a = 20 WHERE a = 2")
        # no close(): journal alone must recover everything
        recovered = RowDatabase(path)
        rows = recovered.connect().query("SELECT a FROM t ORDER BY a").fetchall()
        assert rows == [(1,), (20,)]
        recovered.close()

    def test_checkpoint_then_reopen(self, tmp_path):
        path = tmp_path / "c.db"
        database = RowDatabase(path)
        connection = database.connect()
        connection.execute("CREATE TABLE t (a INTEGER, s VARCHAR(5))")
        connection.execute("INSERT INTO t VALUES (1, 'x')")
        database.close()
        reopened = RowDatabase(path)
        assert reopened.connect().query("SELECT * FROM t").fetchall() == [
            (1, "x")
        ]
        reopened.close()

    def test_drop_table_durable(self, tmp_path):
        path = tmp_path / "d.db"
        database = RowDatabase(path)
        connection = database.connect()
        connection.execute("CREATE TABLE gone (a INTEGER)")
        connection.execute("DROP TABLE gone")
        recovered = RowDatabase(path)
        with pytest.raises(CatalogError):
            recovered.table("gone")
        recovered.close()
