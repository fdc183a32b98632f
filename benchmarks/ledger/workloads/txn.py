"""``txn_mixed``: the paper's ACID claim, and writes beside reads.

Every commit invalidates the reader's plan-cache entry and grows the delta
it must merge; ``storage.wal``, ``txn``, ``cache`` invalidation and recovery
do the work.  A read-path gain bought with commit-path or recovery cost
shows here.
"""

from __future__ import annotations

import random
import shutil
import time

import repro
from repro.workloads.tpch import generate

from checks import check_rows
from harness import Workload, directory_bytes, median, reopen_s
from workloads.tpch import load_tpch, tpch_user_bytes

TABLES = ["orders", "lineitem"]
TXNS_PER_PASS = 5  # then the second connection reads once
INSERT_ROWS = 10
IMAGE_AT_COMMIT = 600  # the crash image always holds this many commits
REOPENS = 7
READ_SQL = (
    "SELECT o_orderpriority, count(*), sum(o_totalprice) FROM orders "
    "GROUP BY o_orderpriority"
)
#: bytes of one inserted row as the user wrote it: 3 INTEGER, a DECIMAL as
#: float64, a DATE as int32, and the UTF-8 text fields below
_ROW_TEXT = ("O", "1-URGENT", "Clerk#000000001", "txn_mixed")
ROW_BYTES = 3 * 4 + 8 + 4 + sum(len(text) for text in _ROW_TEXT)


class TxnMixed(Workload):
    name = "txn_mixed"
    scale_factor = 0.01
    persistent = True
    setup_repeats = 7  # a load is 0.1 s
    min_passes = IMAGE_AT_COMMIT // TXNS_PER_PASS

    def generate(self) -> None:
        self.data = generate(self.scale_factor, seed=self.seed)
        self.loaded_bytes = tpch_user_bytes(self.data, TABLES)
        self.rng = random.Random(self.seed)
        self.image = None

    def load(self, rec) -> None:
        self.directory = self.fresh_dir()
        self.database = repro.startup(self.directory)
        self.writer = self.database.connect()
        self.reader = self.database.connect()
        load_tpch(self.writer, self.data, rec, TABLES)
        orders = self.data["orders"]
        # the model: what every acknowledged commit has made of ``orders``
        self.model = dict(
            zip(orders["o_orderkey"].tolist(), orders["o_totalprice"].tolist())
        )
        self.live = list(self.model)
        self.next_key = max(self.live) + 1
        self.commits = 0
        self.inserted = 0
        self.writer_wall = 0.0

    def _transaction(self, rec) -> None:
        rng, writer = self.rng, self.writer
        keys = list(range(self.next_key, self.next_key + INSERT_ROWS))
        prices = [round(rng.uniform(900, 400000), 2) for _ in keys]
        values = ", ".join(
            f"({key}, {1 + key % 1500}, 'O', {price}, date '1998-08-02', "
            f"'1-URGENT', 'Clerk#000000001', 0, 'txn_mixed')"
            for key, price in zip(keys, prices)
        )
        updated = self.live[rng.randrange(len(self.live))]
        position = rng.randrange(len(self.live))
        deleted = self.live[position]
        start = time.perf_counter()
        rec.write("begin", lambda: writer.execute("BEGIN"))
        rec.write("insert", lambda: writer.execute(f"INSERT INTO orders VALUES {values}"))
        rec.write(
            "update",
            lambda: writer.execute(
                "UPDATE orders SET o_totalprice = o_totalprice + 1 "
                f"WHERE o_orderkey = {updated}"
            ),
        )
        rec.write(
            "delete",
            lambda: writer.execute(f"DELETE FROM orders WHERE o_orderkey = {deleted}"),
        )
        rec.write("commit", lambda: writer.execute("COMMIT"))
        if rec.recording:
            self.writer_wall += time.perf_counter() - start
            self.commits += 1
        # acknowledged: apply to the model
        self.model.update(zip(keys, prices))
        self.model[updated] = round(self.model[updated] + 1, 2)
        del self.model[deleted]
        self.live[position] = self.live[-1]
        self.live.pop()
        self.live.extend(keys)
        self.next_key += INSERT_ROWS
        self.inserted += INSERT_ROWS

    def one_pass(self, rec) -> None:
        for _ in range(TXNS_PER_PASS):
            self._transaction(rec)
        rec.read("read", lambda: self.reader.query(READ_SQL).fetchall())
        if self.commits == IMAGE_AT_COMMIT and self.image is None:
            self._crash_image()

    def _crash_image(self) -> None:
        """Copy the directory without shutting down: only flushed bytes, as
        a crash would leave them, so reopening it replays the log."""
        self.image = f"{self.directory}.image"
        shutil.copytree(self.directory, self.image)
        self.image_model = dict(self.model)
        self.image_user_bytes = self.loaded_bytes + self.inserted * ROW_BYTES

    def finish(self, rec) -> None:
        rec.native["commits_per_s"] = self.commits / self.writer_wall
        rec.space = (directory_bytes(self.image), self.image_user_bytes)

    def verify(self, rec) -> None:
        self.unload()
        def holds_the_model(conn):
            rows = conn.query("SELECT o_orderkey, o_totalprice FROM orders").fetchall()
            check_rows(
                rec, "crash image: every acknowledged commit, nothing else",
                rows, list(self.image_model.items()),
            )

        reopens = []
        for copy in range(REOPENS):
            directory = f"{self.image}.{copy}"
            shutil.copytree(self.image, directory)  # opening one replays it
            reopens.append(
                reopen_s(rec, directory, "orders", len(self.image_model),
                         repeats=1, inspect=holds_the_model)
            )
        rec.native["reopen_s"] = median(reopens)
