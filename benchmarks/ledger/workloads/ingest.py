"""``ingest_export``: the paper's Fig. 5/6 and its zero-copy claim.

Writes beside ``tpch_hot``'s reads over the same columns: ``storage``,
``copy``, ``txn`` and ``interface`` do the work and ``mal.operators`` barely
any, so a load-time encoding that speeds ``tpch_hot`` but slows ingest or
bloats the directory shows as a cost here.
"""

from __future__ import annotations

import repro
from repro.workloads.tpch import TABLES, generate, schema_statements

from checks import check_columns
from harness import (
    Workload, columns_user_bytes, directory_bytes, median, reopen_s,
)

COPY_ROWS = 25_000  # rows of the slice that goes out to CSV and back in
COPIES = 2  # CSV round trips per pass
EXPORTS = 10  # SELECT * + to_dict() per pass


class IngestExport(Workload):
    name = "ingest_export"
    scale_factor = 0.1
    persistent = True
    warmup_passes = 1
    bulk_reads = True

    def generate(self) -> None:
        self.lineitem = generate(self.scale_factor, seed=self.seed)["lineitem"]
        self.rows = len(self.lineitem["l_orderkey"])
        self.slice = {k: v[:COPY_ROWS] for k, v in self.lineitem.items()}
        self.user_bytes = columns_user_bytes(self.lineitem)
        ddl = dict(zip(TABLES, schema_statements()))["lineitem"]
        self.ddl = {t: ddl.replace("lineitem", t, 1) for t in ("li", "li_copy")}
        self.exported = None
        self.disk_bytes = 0

    def load(self, rec) -> None:
        self.directory = self.fresh_dir()
        self.csv = f"{self.directory}.csv"
        self.database = repro.startup(self.directory)
        self.conn = self.database.connect()

    def one_pass(self, rec) -> None:
        conn = self.conn
        for table in self.ddl:
            conn.execute(f"DROP TABLE IF EXISTS {table}")
        conn.execute(self.ddl["li"])
        rec.append(conn, "li", self.lineitem)
        rec.write("checkpoint", self.database.checkpoint)
        if rec.recording and not self.disk_bytes:
            # first timed pass; only ``li`` exists and the log is empty: the
            # space the user's bytes take on disk
            self.disk_bytes = directory_bytes(self.directory)
        for _ in range(COPIES):
            rec.write(
                "copy_out",
                lambda: conn.execute(
                    f"COPY (SELECT * FROM li LIMIT {COPY_ROWS}) TO '{self.csv}'"
                ),
            )
            conn.execute("DROP TABLE IF EXISTS li_copy")
            conn.execute(self.ddl["li_copy"])
            rec.write(
                "copy_in",
                lambda: conn.execute(f"COPY INTO li_copy FROM '{self.csv}'"),
            )
        for _ in range(EXPORTS):
            self.exported = rec.read(
                "export", lambda: conn.query("SELECT * FROM li").to_dict()
            )

    def finish(self, rec) -> None:
        rec.space = (self.disk_bytes, self.user_bytes)
        for kind in ("copy_in", "copy_out"):
            rec.native[f"{kind}_rows_per_s"] = COPY_ROWS / median(rec.samples[kind])

    def verify(self, rec) -> None:
        check_columns(rec, "SELECT * of appended rows", self.exported, self.lineitem)
        copied = self.conn.query("SELECT * FROM li_copy").to_dict()
        check_columns(rec, "COPY TO then COPY INTO", copied, self.slice)
        self.conn.close()
        repro.shutdown()
        rec.native["reopen_s"] = reopen_s(
            rec, self.directory, "li", self.rows, repeats=15,
            inspect=lambda conn: check_columns(
                rec, "SELECT * after reopen",
                conn.query("SELECT * FROM li").to_dict(), self.lineitem,
            ),
        )
