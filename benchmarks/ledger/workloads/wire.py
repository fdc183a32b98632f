"""``wire``: the paper's "socket tax" axis and the async serving path.

``server`` (binary encode/decode, framing, session, queueing) does most of
the work; no other workload touches it.  Each pass has two phases that use
the same layer differently: phase A pulls a large result (bandwidth), phase
B runs many small statements from concurrent clients (per-statement cost).
"""

from __future__ import annotations

import os
import random
import time
from concurrent.futures import ThreadPoolExecutor

from repro.server import AsyncServer, RemoteConnection
from repro.workloads.tpch import generate

from checks import check_columns
from harness import Workload, median, percentile
from workloads.tpch import load_tpch, tpch_user_bytes

CLIENTS = min(os.cpu_count() or 1, 2)
PULL_ROWS = 300_000
PULL_COLUMNS = [
    "l_orderkey", "l_partkey", "l_suppkey", "l_linenumber", "l_quantity",
    "l_extendedprice", "l_discount", "l_tax", "l_shipdate", "l_returnflag",
    "l_comment",
]
PULL_SQL = f"SELECT {', '.join(PULL_COLUMNS)} FROM lineitem LIMIT {PULL_ROWS}"
POINT_SQL = (
    "SELECT o_orderkey, o_custkey, o_totalprice, o_orderdate FROM orders "
    "WHERE o_orderkey = ?"
)
AGGREGATE_SQL = (
    "SELECT o_orderpriority, count(*), sum(o_totalprice) FROM orders "
    "WHERE o_custkey = {custkey} GROUP BY o_orderpriority"
)
BLOCK = 150  # phase-B statements per client per pass


class Wire(Workload):
    name = "wire"
    scale_factor = 0.1
    bulk_reads = True

    def generate(self) -> None:
        self.data = generate(self.scale_factor, seed=self.seed)
        self.user_bytes = tpch_user_bytes(self.data)
        orders = self.data["orders"]
        self.order_keys = orders["o_orderkey"].tolist()
        self.custkey_of = dict(zip(self.order_keys, orders["o_custkey"].tolist()))
        self.customers = len(self.data["customer"]["c_custkey"])
        self.rngs = [random.Random(self.seed * 1000 + i) for i in range(CLIENTS)]
        self.pulled = None
        self.block_walls: list = []
        self.clients: list = []
        self.pool = ThreadPoolExecutor(CLIENTS)

    def load(self, rec) -> None:
        self.server = AsyncServer(
            engine="columnar", protocol="monetdb", workers=CLIENTS
        )
        self.server.start()
        self.database = self.server.database
        conn = self.database.connect()
        load_tpch(conn, self.data, rec)
        conn.close()
        self.clients = [
            RemoteConnection("127.0.0.1", self.server.port, "monetdb", binary=True)
            for _ in range(CLIENTS)
        ]
        for client in self.clients:
            if not client.binary:
                raise RuntimeError("server did not accept the binary format")
            client.prepare("point", POINT_SQL)

    def unload(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        self.server.stop()
        self.database = None

    def _block(self, client, rng):
        """One client's phase-B block: 4 of 5 prepared point reads on
        ``orders``, 1 of 5 a small aggregation.  Returns the samples and the
        point reads that did not come back with the right customer."""
        samples, wrong = [], 0
        for i in range(BLOCK):
            start = time.perf_counter()
            if i % 5 == 4:
                sql = AGGREGATE_SQL.format(custkey=rng.randint(1, self.customers))
                rows = client.query(sql).fetchall()
                kind = "aggregate"
            else:
                key = rng.choice(self.order_keys)
                rows = client.execute_prepared("point", (key,)).fetchall()
                kind = "point"
                if len(rows) != 1 or rows[0][1] != self.custkey_of[key]:
                    wrong += 1
            samples.append((kind, time.perf_counter() - start, len(rows)))
        return samples, wrong

    def one_pass(self, rec) -> None:
        self.pulled = rec.read(
            "pull", lambda: self.clients[0].query(PULL_SQL).to_columns()
        )
        start = time.perf_counter()
        blocks = [
            self.pool.submit(self._block, client, rng)
            for client, rng in zip(self.clients, self.rngs)
        ]
        results = [block.result() for block in blocks]
        if rec.recording:
            self.block_walls.append(time.perf_counter() - start)
        for samples, wrong in results:
            rec.attempted += len(samples)
            for _ in range(wrong):
                rec.check("prepared point read returns its order", False)
            for kind, seconds, rows in samples:
                rec.add_sample(kind, seconds, rows)

    def finish(self, rec) -> None:
        super().finish(rec)
        small = rec.samples["point"] + rec.samples["aggregate"]
        rec.native["wire_rows_per_s"] = PULL_ROWS / median(rec.samples["pull"])
        rec.native["stmts_per_s"] = CLIENTS * BLOCK / median(self.block_walls)
        rec.native["stmt_ms_p95"] = percentile(small, 95) * 1e3

    def verify(self, rec) -> None:
        want = {
            name: self.data["lineitem"][name][:PULL_ROWS] for name in PULL_COLUMNS
        }
        check_columns(rec, "pull over the wire", self.pulled, want)
        self.pool.shutdown()
