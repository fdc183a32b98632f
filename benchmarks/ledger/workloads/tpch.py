"""``tpch_hot`` and ``tpch_parallel``: the paper's Table 1 on warm data.

Plan cache is warm after the warm-up passes, so the front end does next to
nothing and ``mal.operators`` (grouping, joins, sort) does the work.  The
parallel variant is the only workload on which ``repro.exec`` runs.
"""

from __future__ import annotations

import os

import repro
from repro.frames import DataFrame
from repro.frames.tpch import run_query
from repro.workloads.tpch import QUERIES, TABLES, generate, schema_statements

from checks import check_rows, columns_to_rows
from harness import Workload, columns_user_bytes

QUERY_NUMBERS = range(1, 11)


def load_tpch(conn, data: dict, rec, tables=TABLES) -> None:
    """Schema + ``Connection.append`` of every table; the lineitem append is
    the workload's ingest sample."""
    ddl = dict(zip(TABLES, schema_statements()))
    for table in tables:
        conn.execute(ddl[table])
        if table == "lineitem":
            rec.append(conn, table, data[table])
        else:
            conn.append(table, data[table])


def tpch_user_bytes(data: dict, tables=TABLES) -> int:
    return sum(columns_user_bytes(data[table]) for table in tables)


class TpchHot(Workload):
    name = "tpch_hot"
    scale_factor = 0.1
    config: dict = {}

    def generate(self) -> None:
        self.data = generate(self.scale_factor, seed=self.seed)
        self.user_bytes = tpch_user_bytes(self.data)
        self.answers: dict = {}

    def load(self, rec) -> None:
        self.database = repro.startup(**self.config)
        self.conn = self.database.connect()
        load_tpch(self.conn, self.data, rec)

    def one_pass(self, rec) -> None:
        for number in QUERY_NUMBERS:
            answer = rec.read(
                f"q{number}", lambda: self.conn.query(QUERIES[number]).to_dict()
            )
            if answer is not None:
                self.answers[number] = answer

    def verify(self, rec) -> None:
        """Every query's last timed answer against the independent plans of
        ``repro.frames.tpch``, as multisets under float tolerance."""
        frames = {name: DataFrame(cols) for name, cols in self.data.items()}
        for number in QUERY_NUMBERS:
            expected = run_query(number, frames)
            want = columns_to_rows({c: expected[c] for c in expected.columns})
            got = columns_to_rows(self.answers.get(number, {}))
            check_rows(rec, f"q{number} against repro.frames.tpch", got, want)


class TpchParallel(TpchHot):
    name = "tpch_parallel"
    one_core = False
    config = {"parallel": True, "max_workers": min(os.cpu_count() or 1, 4)}
