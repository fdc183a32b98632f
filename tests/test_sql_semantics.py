"""Regression tests for the SQL semantics fixes.

Pins the behavior of: truncating integer division, dividend-signed
modulo, exact DECIMAL literal arithmetic, and ``LIKE ... ESCAPE``.
Each case is exercised both through constant folding (literal operands)
and through the vectorized column path, which take different code routes.
"""

import pytest

from repro.errors import BindError


class TestIntegerDivision:
    @pytest.mark.parametrize(
        "sql,expected",
        [
            ("SELECT 7 / 2", 3),
            ("SELECT -7 / 2", -3),
            ("SELECT 7 / -2", -3),
            ("SELECT -7 / -2", 3),
            ("SELECT 6 / 2", 3),
            ("SELECT 0 / 5", 0),
        ],
    )
    def test_constant_folding_truncates_toward_zero(self, conn, sql, expected):
        value = conn.query(sql).scalar()
        assert value == expected
        assert isinstance(value, int) and not isinstance(value, bool)

    def test_column_path_truncates_toward_zero(self, conn):
        conn.execute("CREATE TABLE d (a INTEGER, b INTEGER)")
        conn.execute(
            "INSERT INTO d VALUES (7, 2), (-7, 2), (7, -2), (-7, -2), (5, 0)"
        )
        rows = conn.query("SELECT a / b FROM d").fetchall()
        assert [r[0] for r in rows] == [3, -3, -3, 3, None]

    def test_float_division_still_exact(self, conn):
        assert conn.query("SELECT 7.0e0 / 2").scalar() == 3.5
        assert conn.query("SELECT 7 / 2.0e0").scalar() == 3.5


class TestModulo:
    @pytest.mark.parametrize(
        "sql,expected",
        [
            ("SELECT 7 % 2", 1),
            ("SELECT 7 % -2", 1),    # sign of the dividend
            ("SELECT -7 % 2", -1),
            ("SELECT -7 % -2", -1),
        ],
    )
    def test_constant_folding_sign_of_dividend(self, conn, sql, expected):
        assert conn.query(sql).scalar() == expected

    def test_column_path_sign_of_dividend(self, conn):
        conn.execute("CREATE TABLE m (a INTEGER, b INTEGER)")
        conn.execute(
            "INSERT INTO m VALUES (7, 2), (7, -2), (-7, 2), (-7, -2), (3, 0)"
        )
        rows = conn.query("SELECT a % b FROM m").fetchall()
        assert [r[0] for r in rows] == [1, 1, -1, -1, None]

    def test_mod_function_matches_operator(self, conn):
        assert conn.query("SELECT mod(7, -2)").scalar() == 1
        assert conn.query("SELECT mod(-7, 2)").scalar() == -1

    def test_identity_holds(self, conn):
        # (a/b)*b + a%b == a must hold under truncating semantics
        conn.execute("CREATE TABLE i (a INTEGER, b INTEGER)")
        cases = [(7, 2), (-7, 2), (7, -2), (-7, -2), (9, 4), (-9, -4)]
        conn.execute(
            "INSERT INTO i VALUES "
            + ", ".join(f"({a}, {b})" for a, b in cases)
        )
        rows = conn.query("SELECT (a / b) * b + a % b, a FROM i").fetchall()
        for reconstructed, a in rows:
            assert reconstructed == a


class TestDecimalLiterals:
    def test_point_one_plus_point_two(self, conn):
        # the canonical float trap: exact under scaled-integer DECIMALs
        assert conn.query("SELECT 0.1 + 0.2").scalar() == pytest.approx(0.3)
        assert conn.query("SELECT 0.1 + 0.2 = 0.3").scalar() is True

    def test_multiplication_adds_scales(self, conn):
        assert conn.query("SELECT 0.1 * 0.2").scalar() == pytest.approx(0.02)
        assert conn.query("SELECT 1.5 * 1.5").scalar() == pytest.approx(2.25)

    def test_subtraction_exact(self, conn):
        assert conn.query("SELECT 0.3 - 0.1 = 0.2").scalar() is True

    def test_mixed_scale_addition(self, conn):
        assert conn.query("SELECT 1.05 + 2.5").scalar() == pytest.approx(3.55)

    def test_decimal_column_arithmetic(self, conn):
        conn.execute("CREATE TABLE dc (v DECIMAL(10,2))")
        conn.execute("INSERT INTO dc VALUES (0.10), (0.20)")
        assert conn.query("SELECT sum(v) FROM dc").scalar() == pytest.approx(0.3)
        assert conn.query(
            "SELECT count(*) FROM dc WHERE v + 0.1 = 0.2"
        ).scalar() == 1

    def test_exponent_literals_stay_float(self, conn):
        value = conn.query("SELECT 1e2").scalar()
        assert value == 100.0 and isinstance(value, float)


class TestLikeEscape:
    def test_escape_makes_percent_literal(self, conn):
        conn.execute("CREATE TABLE le (s VARCHAR(20))")
        conn.execute(
            "INSERT INTO le VALUES ('10%'), ('100'), ('10x'), (NULL)"
        )
        rows = conn.query(
            "SELECT s FROM le WHERE s LIKE '10x%' ESCAPE 'x'"
        ).fetchall()
        assert rows == [("10%",)]

    def test_escape_makes_underscore_literal(self, conn):
        conn.execute("CREATE TABLE lu (s VARCHAR(20))")
        conn.execute("INSERT INTO lu VALUES ('a_b'), ('axb'), ('ab')")
        rows = conn.query(
            "SELECT s FROM lu WHERE s LIKE 'a!_b' ESCAPE '!'"
        ).fetchall()
        assert rows == [("a_b",)]

    def test_not_like_with_escape(self, conn):
        conn.execute("CREATE TABLE ln (s VARCHAR(20))")
        conn.execute("INSERT INTO ln VALUES ('5%'), ('55')")
        rows = conn.query(
            "SELECT s FROM ln WHERE s NOT LIKE '5!%' ESCAPE '!'"
        ).fetchall()
        assert rows == [("55",)]

    def test_default_backslash_escape_unchanged(self, conn):
        conn.execute("CREATE TABLE lb (s VARCHAR(20))")
        conn.execute("INSERT INTO lb VALUES ('x_y'), ('xzy')")
        rows = conn.query(
            "SELECT s FROM lb WHERE s LIKE 'x\\_y'"
        ).fetchall()
        assert rows == [("x_y",)]

    def test_escape_folds_on_constants(self, conn):
        assert conn.query("SELECT '10%' LIKE '10x%' ESCAPE 'x'").scalar() is True
        assert conn.query("SELECT '105' LIKE '10x%' ESCAPE 'x'").scalar() is False

    def test_multichar_escape_rejected(self, conn):
        conn.execute("CREATE TABLE lm (s VARCHAR(5))")
        with pytest.raises(BindError, match="single-character"):
            conn.query("SELECT s FROM lm WHERE s LIKE 'a%' ESCAPE 'xy'")


class TestFromlessWhere:
    """A FROM-less SELECT must still honor its WHERE clause."""

    def test_false_predicate_yields_no_row(self, conn):
        assert conn.query("SELECT 1 WHERE 1 = 0").fetchall() == []

    def test_true_predicate_yields_one_row(self, conn):
        assert conn.query("SELECT 1 WHERE 1 = 1").fetchall() == [(1,)]

    def test_aggregate_over_empty_fromless_subquery(self, conn):
        rows = conn.query(
            "SELECT COUNT(*), SUM(x) FROM (SELECT 1 AS x WHERE 1 = 0) t"
        ).fetchall()
        assert rows == [(0, None)]


class TestSetOpNulls:
    """Untyped NULLs and NULL keys inside set operations."""

    def test_untyped_null_union_all(self, conn):
        rows = conn.query("SELECT NULL UNION ALL SELECT 1").fetchall()
        assert rows == [(None,), (1,)]

    def test_null_equals_null_in_intersect(self, conn):
        assert conn.query("SELECT NULL INTERSECT SELECT NULL").fetchall() == [
            (None,)
        ]

    def test_null_equals_null_in_except(self, conn):
        assert conn.query("SELECT NULL EXCEPT SELECT NULL").fetchall() == []

    def test_null_kept_by_except_when_absent_on_right(self, conn):
        conn.execute("CREATE TABLE sn (s VARCHAR(5))")
        conn.execute("INSERT INTO sn VALUES (NULL), ('df')")
        rows = conn.query("SELECT s FROM sn EXCEPT SELECT 'df'").fetchall()
        assert rows == [(None,)]

    def test_branches_of_different_cardinality_with_constants(self, conn):
        # the left branch's constant column must broadcast to the LEFT
        # side's row count, not whatever relation was computed last
        conn.execute("CREATE TABLE sc1 (c0 INTEGER, c1 INTEGER)")
        conn.execute("INSERT INTO sc1 VALUES (NULL, NULL)")
        conn.execute("CREATE TABLE sc2 (c0 INTEGER, c1 DOUBLE)")
        conn.execute("INSERT INTO sc2 VALUES (12, 6.39), (43, 67.74)")
        rows = conn.query(
            "SELECT c1, c1, 'x' FROM sc1 INTERSECT SELECT c0, -20, 'y' FROM sc2"
        ).fetchall()
        assert rows == []
        rows = conn.query(
            "SELECT c0, 'x' FROM sc2 EXCEPT SELECT c0, 'x' FROM sc1"
        ).fetchall()
        assert sorted(rows) == [(12, "x"), (43, "x")]

    def test_string_literal_adopts_date_in_union(self, conn):
        import datetime

        conn.execute("CREATE TABLE sd (d DATE)")
        conn.execute("INSERT INTO sd VALUES ('2020-01-05')")
        rows = conn.query(
            "SELECT '2019-09-18' UNION SELECT d FROM sd"
        ).fetchall()
        assert sorted(rows) == [
            (datetime.date(2019, 9, 18),),
            (datetime.date(2020, 1, 5),),
        ]


class TestNullConcat:
    """String concatenation with NULL operands yields NULL."""

    def test_literal_concat_null(self, conn):
        assert conn.query("SELECT 'a' || NULL").scalar() is None
        assert conn.query("SELECT NULL || 'a'").scalar() is None

    def test_column_concat_null(self, conn):
        conn.execute("CREATE TABLE nc (s VARCHAR(5))")
        conn.execute("INSERT INTO nc VALUES ('x'), (NULL)")
        rows = conn.query("SELECT s || '!' FROM nc").fetchall()
        assert rows == [("x!",), (None,)]


class TestConstantFoldOverflow:
    """Folded BIGINT arithmetic must raise instead of silently wrapping."""

    def test_bigint_add_overflow_raises(self, conn):
        from repro.errors import ConversionError

        with pytest.raises(ConversionError, match="out of range"):
            conn.query("SELECT 9223372036854775807 + 1")

    def test_bigint_subtract_overflow_raises(self, conn):
        from repro.errors import ConversionError

        with pytest.raises(ConversionError, match="out of range"):
            conn.query("SELECT -9223372036854775807 - 2")

    def test_in_range_fold_unaffected(self, conn):
        assert conn.query("SELECT 9223372036854775806 + 1").scalar() == (
            9223372036854775807
        )


class TestNullVsEmptyString:
    """NULL and '' are distinct grouping keys, as in every SQL engine."""

    @pytest.fixture
    def strings(self, conn):
        conn.execute("CREATE TABLE es (x VARCHAR(5))")
        conn.execute("INSERT INTO es VALUES (''), (NULL), (''), ('a')")
        return conn

    def test_distinct(self, strings):
        rows = strings.query("SELECT DISTINCT x FROM es").fetchall()
        assert sorted(rows, key=repr) == [("",), ("a",), (None,)]

    def test_group_by_counts(self, strings):
        rows = strings.query(
            "SELECT x, COUNT(*) FROM es GROUP BY x"
        ).fetchall()
        assert sorted(rows, key=repr) == [("", 2), ("a", 1), (None, 1)]

    def test_except_keeps_both(self, strings):
        rows = strings.query("SELECT x FROM es EXCEPT SELECT 'a'").fetchall()
        assert sorted(rows, key=repr) == [("",), (None,)]


class TestDecimalScale:
    """DECIMAL results must stay in the declared scale everywhere."""

    def test_cast_to_integer_truncates_toward_zero(self, conn):
        assert conn.query("SELECT CAST(-66.87 AS INTEGER)").scalar() == -66
        assert conn.query("SELECT CAST(66.87 AS INTEGER)").scalar() == 66

    def test_cast_column_to_integer_truncates_toward_zero(self, conn):
        conn.execute("CREATE TABLE dc (d DECIMAL(8,2))")
        conn.execute("INSERT INTO dc VALUES (-66.87), (66.87)")
        rows = conn.query("SELECT CAST(d AS INTEGER) FROM dc").fetchall()
        assert rows == [(-66,), (66,)]

    def test_abs_of_decimal_column(self, conn):
        conn.execute("CREATE TABLE da (d DECIMAL(8,2))")
        conn.execute("INSERT INTO da VALUES (-22.08), (40.23)")
        rows = conn.query("SELECT abs(d) FROM da").fetchall()
        assert rows == [(22.08,), (40.23,)]

    def test_abs_of_decimal_expression(self, conn):
        conn.execute("CREATE TABLE dx (d DECIMAL(8,2))")
        conn.execute("INSERT INTO dx VALUES (40.23)")
        value = conn.query(
            "SELECT abs((d * d) * (8.05 + d)) FROM dx"
        ).scalar()
        assert value == pytest.approx(78138.906012)

    def test_subquery_constant_times_literal(self, conn):
        # a broadcast DECIMAL constant flowing through a derived table
        # must not be re-scaled when the scalar result materializes
        conn.execute("CREATE TABLE ds (d DECIMAL(8,2))")
        conn.execute("INSERT INTO ds VALUES (1.00)")
        value = conn.query(
            "SELECT s.c2 * -6.24 FROM (SELECT 3.83 AS c2 FROM ds) s"
        ).scalar()
        assert value == pytest.approx(-23.8992)


class TestExactIntegerKeys:
    """BIGINT keys above 2^53 are distinct even though float64 cannot
    tell 2^53 from 2^53 + 1: joins, IN, and set operations compare them
    exactly."""

    @pytest.fixture
    def wide(self, conn):
        conn.execute("CREATE TABLE a (k BIGINT)")
        conn.execute("CREATE TABLE b (k BIGINT)")
        conn.execute("INSERT INTO a VALUES (9007199254740992), (9007199254740993)")
        conn.execute("INSERT INTO b VALUES (9007199254740993)")
        return conn

    def test_join(self, wide):
        rows = wide.query("SELECT a.k FROM a JOIN b ON a.k = b.k").fetchall()
        assert rows == [(9007199254740993,)]

    def test_in_subquery(self, wide):
        rows = wide.query("SELECT k FROM a WHERE k IN (SELECT k FROM b)").fetchall()
        assert rows == [(9007199254740993,)]

    def test_not_in_subquery(self, wide):
        rows = wide.query(
            "SELECT k FROM a WHERE k NOT IN (SELECT k FROM b)"
        ).fetchall()
        assert rows == [(9007199254740992,)]

    def test_intersect(self, wide):
        rows = wide.query("SELECT k FROM a INTERSECT SELECT k FROM b").fetchall()
        assert rows == [(9007199254740993,)]

    def test_except(self, wide):
        rows = wide.query("SELECT k FROM a EXCEPT SELECT k FROM b").fetchall()
        assert rows == [(9007199254740992,)]

    def test_group_by(self, wide):
        rows = wide.query(
            "SELECT k, count(*) FROM (SELECT k FROM a UNION ALL SELECT k FROM b) u "
            "GROUP BY k ORDER BY k"
        ).fetchall()
        assert rows == [(9007199254740992, 1), (9007199254740993, 2)]


class TestDistinctAggregateEmpty:
    """count(DISTINCT ...) over no rows groups an empty key space."""

    def test_empty_table(self, conn):
        conn.execute("CREATE TABLE e (k INTEGER, s VARCHAR)")
        assert conn.query("SELECT count(DISTINCT k) FROM e").scalar() == 0
        assert conn.query("SELECT count(DISTINCT s) FROM e").scalar() == 0
        rows = conn.query("SELECT k, count(DISTINCT s) FROM e GROUP BY k").fetchall()
        assert rows == []

    def test_all_null(self, conn):
        conn.execute("CREATE TABLE e (k INTEGER, s VARCHAR)")
        conn.execute("INSERT INTO e VALUES (NULL, NULL), (NULL, NULL)")
        assert conn.query("SELECT count(DISTINCT k) FROM e").scalar() == 0
        rows = conn.query("SELECT k, count(DISTINCT s) FROM e GROUP BY k").fetchall()
        assert rows == [(None, 0)]


class TestMedianOfNoValues:
    """median() over no non-NULL values is NULL, grouped or not."""

    def test_all_null(self, conn):
        conn.execute("CREATE TABLE m (g INTEGER, v INTEGER)")
        conn.execute("INSERT INTO m VALUES (1, NULL), (2, 4), (2, NULL)")
        assert conn.query("SELECT median(v) FROM m WHERE g = 1").scalar() is None
        rows = conn.query("SELECT g, median(v) FROM m GROUP BY g ORDER BY g").fetchall()
        assert rows == [(1, None), (2, 4.0)]


class TestExactWindowExtremes:
    """min/max OVER keep BIGINT values above 2^53 exact, over whole
    partitions and running frames alike."""

    @pytest.fixture
    def wide(self, conn):
        conn.execute("CREATE TABLE w (g INTEGER, o INTEGER, k BIGINT, s VARCHAR)")
        conn.execute(
            "INSERT INTO w VALUES "
            "(1, 1, 9007199254740992, NULL), (1, 2, 9007199254740993, 'pear'), "
            "(1, 3, NULL, 'apple'), (2, 1, 9007199254740993, NULL), "
            "(2, 2, 9007199254740992, NULL), (2, 3, 9007199254740994, 'fig')"
        )
        return conn

    def test_whole_partition(self, wide):
        rows = wide.query(
            "SELECT g, o, max(k) OVER (PARTITION BY g), min(k) OVER (PARTITION BY g) "
            "FROM w ORDER BY g, o"
        ).fetchall()
        assert rows == [
            (1, 1, 9007199254740993, 9007199254740992),
            (1, 2, 9007199254740993, 9007199254740992),
            (1, 3, 9007199254740993, 9007199254740992),
            (2, 1, 9007199254740994, 9007199254740992),
            (2, 2, 9007199254740994, 9007199254740992),
            (2, 3, 9007199254740994, 9007199254740992),
        ]

    def test_running(self, wide):
        rows = wide.query(
            "SELECT g, o, "
            "max(k) OVER (PARTITION BY g ORDER BY o ROWS UNBOUNDED PRECEDING), "
            "min(k) OVER (PARTITION BY g ORDER BY o ROWS UNBOUNDED PRECEDING), "
            "min(s) OVER (PARTITION BY g ORDER BY o ROWS UNBOUNDED PRECEDING) "
            "FROM w ORDER BY g, o"
        ).fetchall()
        assert rows == [
            (1, 1, 9007199254740992, 9007199254740992, None),
            (1, 2, 9007199254740993, 9007199254740992, "pear"),
            (1, 3, 9007199254740993, 9007199254740992, "apple"),
            (2, 1, 9007199254740993, 9007199254740993, None),
            (2, 2, 9007199254740993, 9007199254740992, None),
            (2, 3, 9007199254740994, 9007199254740992, "fig"),
        ]
