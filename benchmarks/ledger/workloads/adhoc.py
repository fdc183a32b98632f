"""``adhoc_small``: many short statements over tiny data.

Data is SF 0.01, so ``sql.parse`` + ``algebra.bind/optimize`` +
``mal.compile`` + ``cache`` dominate and ``mal.operators`` is small — the
mirror image of ``tpch_hot``.  Three statements in four carry fresh literals
(a plan-cache miss by construction); one in four repeats an exact text from
a small hot set (a hit).
"""

from __future__ import annotations

import random
import sqlite3

import repro
from repro.storage.types import days_to_date
from repro.workloads.tpch import generate

from checks import check_rows
from harness import Workload
from workloads.tpch import load_tpch, tpch_user_bytes

TABLES = ["supplier", "customer", "orders", "lineitem"]

#: (kind, SQL with {named} literals); every text is valid for sqlite3 too
TEMPLATES = [
    ("order_point",
     "SELECT o_orderkey, o_custkey, o_totalprice FROM orders WHERE o_orderkey = {okey}"),
    ("customer_point",
     "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = {ckey}"),
    ("lineitem_range",
     "SELECT count(*), sum(l_quantity) FROM lineitem "
     "WHERE l_orderkey BETWEEN {okey} AND {okey} + 40"),
    ("price_range",
     "SELECT count(*), min(o_totalprice), max(o_totalprice) FROM orders "
     "WHERE o_totalprice > {price} AND o_totalprice < {price} + 900"),
    ("join_limit",
     "SELECT o_orderkey, c_name FROM orders, customer WHERE o_custkey = c_custkey "
     "AND o_orderkey BETWEEN {okey} AND {okey} + 400 ORDER BY o_orderkey LIMIT 10"),
    ("join_lines",
     "SELECT l_orderkey, l_linenumber, o_orderstatus FROM lineitem "
     "JOIN orders ON l_orderkey = o_orderkey WHERE l_orderkey = {okey} "
     "ORDER BY l_linenumber"),
    ("group_priority",
     "SELECT o_orderpriority, count(*) FROM orders "
     "WHERE o_custkey BETWEEN {ckey} AND {ckey} + 100 "
     "GROUP BY o_orderpriority ORDER BY o_orderpriority"),
    ("group_flags",
     "SELECT l_returnflag, l_linestatus, sum(l_quantity) FROM lineitem "
     "WHERE l_orderkey BETWEEN {okey} AND {okey} + 2000 AND l_partkey < {pkey} "
     "GROUP BY l_returnflag, l_linestatus ORDER BY l_returnflag, l_linestatus"),
    ("cte",
     "WITH big AS (SELECT o_custkey, o_totalprice FROM orders "
     "WHERE o_totalprice > {price}) "
     "SELECT count(*), sum(o_totalprice) FROM big WHERE o_custkey < {ckey}"),
    ("window",
     "SELECT o_orderkey, o_totalprice, "
     "ROW_NUMBER() OVER (ORDER BY o_totalprice DESC, o_orderkey) AS rn "
     "FROM orders WHERE o_custkey = {ckey} AND o_totalprice > {small}"),
    ("topn",
     "SELECT s_suppkey, s_acctbal FROM supplier WHERE s_nationkey = {nation} "
     "AND s_acctbal > {bal} ORDER BY s_acctbal DESC, s_suppkey LIMIT 5"),
    ("distinct",
     "SELECT DISTINCT l_shipmode FROM lineitem "
     "WHERE l_orderkey BETWEEN {okey} AND {okey} + 200 "
     "AND l_quantity > {qty} ORDER BY l_shipmode"),
]

#: one exact text per template recurs: twelve fit the 128-entry plan cache
#: beside the fresh statements, so a repeat is a hit, and every seed's hot
#: quarter has the same mix of templates (README, adhoc_small)
HOT_SHARE = 0.25
BLOCK = 250  # statements per pass
CHECK_EVERY = 50  # every 50th statement is replayed on sqlite3: a 2 % sample


def statement_stream(seed: int, data: dict):
    """Endless seeded stream of ``(kind, sql)``.

    Literals come from wide ranges (prices and balances to the cent), so a
    fresh statement's text has not been seen before."""
    rng = random.Random(seed)
    max_okey = int(data["orders"]["o_orderkey"].max())
    max_ckey = len(data["customer"]["c_custkey"])
    max_pkey = int(data["lineitem"]["l_partkey"].max())

    def fresh(kind, template):
        return kind, template.format(
            okey=rng.randint(1, max_okey),
            ckey=rng.randint(1, max_ckey),
            pkey=rng.randint(1, max_pkey),
            price=f"{rng.uniform(1000, 300000):.2f}",
            small=f"{rng.uniform(0, 900):.2f}",
            bal=f"{rng.uniform(-900, 5000):.2f}",
            nation=rng.randrange(25),
            qty=f"{rng.uniform(1, 40):.2f}",
        )

    hot = [fresh(*template) for template in TEMPLATES]
    while True:
        pick = rng.randrange(len(TEMPLATES))
        yield hot[pick] if rng.random() < HOT_SHARE else fresh(*TEMPLATES[pick])


def sqlite_oracle(data: dict) -> sqlite3.Connection:
    """stdlib sqlite3 loaded with the same rows (dates as ISO text)."""
    oracle = sqlite3.connect(":memory:")
    for table in TABLES:
        columns = data[table]
        lists = [
            [days_to_date(int(v)).isoformat() for v in values]
            if "date" in name else values.tolist()
            for name, values in columns.items()
        ]
        oracle.execute(f"CREATE TABLE {table} ({', '.join(columns)})")
        oracle.executemany(
            f"INSERT INTO {table} VALUES ({','.join('?' * len(columns))})",
            zip(*lists),
        )
    oracle.execute("CREATE INDEX o_pk ON orders (o_orderkey)")
    oracle.execute("CREATE INDEX l_ok ON lineitem (l_orderkey)")
    return oracle


class AdhocSmall(Workload):
    name = "adhoc_small"
    scale_factor = 0.01
    setup_repeats = 7  # a load is 0.1 s

    def generate(self) -> None:
        self.data = generate(self.scale_factor, seed=self.seed)
        self.user_bytes = tpch_user_bytes(self.data, TABLES)
        self.stream = statement_stream(self.seed, self.data)
        self.sent = 0
        self.sampled: list = []  # (sql, rows) of timed statements to replay

    def load(self, rec) -> None:
        self.database = repro.startup()
        self.conn = self.database.connect()
        load_tpch(self.conn, self.data, rec, TABLES)

    def one_pass(self, rec) -> None:
        for _ in range(BLOCK):
            kind, sql = next(self.stream)
            rows = rec.read(kind, lambda: self.conn.query(sql).fetchall())
            self.sent += 1
            if rec.recording and self.sent % CHECK_EVERY == 0 and rows is not None:
                self.sampled.append((sql, rows))

    def verify(self, rec) -> None:
        oracle = sqlite_oracle(self.data)
        for sql, rows in self.sampled:
            want = oracle.execute(sql).fetchall()
            check_rows(rec, f"against sqlite3: {sql}", rows, want)
        oracle.close()
