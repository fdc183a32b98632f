-- hand-minimized from a wide-value join
-- classification: wrong_rows
-- compare: multiset
-- bug: join keys were coded through float64, where 2^53 and 2^53 + 1
-- are the same number, so both left rows matched the one right row
CREATE TABLE a (k BIGINT);
CREATE TABLE b (k BIGINT);
INSERT INTO a VALUES (9007199254740992), (9007199254740993);
INSERT INTO b VALUES (9007199254740993);
SELECT a.k FROM a JOIN b ON a.k = b.k;
