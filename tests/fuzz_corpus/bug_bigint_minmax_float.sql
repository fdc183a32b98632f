-- hand-minimized from a wide-value aggregate
-- classification: wrong_rows
-- compare: multiset
-- bug: min/max state went through float64, where 2^53 and 2^53 + 1 are
-- the same number, so max() returned 2^53 for a group holding 2^53 + 1
-- (the offsets are selected because the comparison reads integers as floats)
CREATE TABLE t (g INTEGER, k BIGINT);
INSERT INTO t VALUES (1, 9007199254740992), (1, 9007199254740993), (2, 9007199254740993), (2, 9007199254740994), (3, 9007199254740993);
SELECT g, max(k) - 9007199254740992, min(k) - 9007199254740992 FROM t GROUP BY g UNION ALL SELECT 0, max(k) - 9007199254740992, min(k) - 9007199254740992 FROM t;
