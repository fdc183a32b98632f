"""``acs_survey``: the paper's Fig. 7/8.

The same ``append`` / export / ``group_by`` layers as the TPC-H workloads,
used differently: very wide rows (per-column catalog and binder cost, 80
replicate-weight columns pulled per statistic through ``interface``) and a
modest row count.
"""

from __future__ import annotations

import numpy as np

import repro
from repro.workloads.acs import (
    generate_acs, load_phase, preprocess, statistics_phase,
)
from repro.workloads.acs.analysis import TABLE, sdr_standard_error

from harness import Workload, columns_user_bytes, reopen_s

PERSONS = 100_000


class TimedAdapter:
    """The adapter surface ``repro.workloads.acs`` drives, over one embedded
    connection, with every call timed as one statement of the pass."""

    def __init__(self, conn, rec):
        self.conn = conn
        self.rec = rec
        self.call = 0

    def _kind(self) -> str:
        self.call += 1
        return f"stat{self.call}"

    def execute(self, sql: str):
        return self.conn.execute(sql)

    def query_rows(self, sql: str) -> list:
        return self.rec.read(self._kind(), lambda: self.conn.query(sql).fetchall())

    def query_columns(self, sql: str) -> dict:
        def pull():
            result = self.conn.query(sql)
            return {
                name: np.asarray(result.to_numpy(i))
                for i, name in enumerate(result.names)
            }

        return self.rec.read(self._kind(), pull)

    def db_write_table(self, table, data, type_names, create_sql=None,
                       rows_per_insert=None) -> int:
        self.conn.execute(create_sql)
        self.rec.append(self.conn, table, data)
        return len(data["agep"])


def weighted_quantile(values, weights, q: float) -> float:
    order = np.argsort(values, kind="stable")
    cumulative = np.cumsum(weights[order].astype(np.float64))
    index = int(np.searchsorted(cumulative, q * cumulative[-1]))
    return float(values[order][min(index, len(order) - 1)])


def recompute(data: dict) -> dict:
    """The survey estimates straight from the NumPy columns, no database."""
    weight = data["pwgtp"].astype(np.float64)
    replicates = [data[f"pwgtp{i}"].astype(np.float64) for i in range(1, 81)]
    age = data["agep"].astype(np.float64)
    total = float(weight.sum())
    mean_age = float(np.dot(age, weight) / total)
    adults = data["agep"] >= 18
    out = {
        "population_total": total,
        "population_total_se": sdr_standard_error(
            total, [float(r.sum()) for r in replicates]
        ),
        "population_by_state": {
            int(st): float(weight[data["st"] == st].sum())
            for st in np.unique(data["st"])
        },
        "mean_age": mean_age,
        "mean_age_se": sdr_standard_error(
            mean_age, [float(np.dot(age, r) / r.sum()) for r in replicates]
        ),
        "median_income_adults": weighted_quantile(
            data["pincp"][adults], data["pwgtp"][adults], 0.5
        ),
        "mean_wage_by_sex": {},
        "fulltime_share_by_state": {},
        "income_deciles": [
            weighted_quantile(data["pincp"], data["pwgtp"], q / 10.0)
            for q in range(1, 10)
        ],
    }
    for sex in (1, 2):
        domain = (data["esr"] == 1) & (data["sex"] == sex)
        out["mean_wage_by_sex"][sex] = float(
            np.dot(data["wagp"][domain].astype(np.float64), weight[domain])
            / weight[domain].sum()
        )
    for st in np.unique(data["st"]):
        rows = data["st"] == st
        out["fulltime_share_by_state"][int(st)] = float(
            (data["f002p"][rows] * weight[rows]).sum() / weight[rows].sum()
        )
    return out


def flatten(value, prefix: str = "") -> dict:
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {prefix: value}
    out = {}
    for key, item in items:
        out.update(flatten(item, f"{prefix}/{key}"))
    return out


class AcsSurvey(Workload):
    name = "acs_survey"
    persistent = True
    bulk_reads = True
    setup_repeats = 5  # each is a ``load_phase``; the first one is cold

    def generate(self) -> None:
        self.data = generate_acs(PERSONS, seed=self.seed)
        self.prepared = preprocess(self.data)
        self.user_bytes = columns_user_bytes(self.prepared)
        self.estimates = None

    def load(self, rec) -> None:
        self.directory = self.fresh_dir()
        self.database = repro.startup(self.directory)
        self.conn = self.database.connect()
        self.adapter = TimedAdapter(self.conn, rec)
        load_phase(self.adapter, self.data)

    def one_pass(self, rec) -> None:
        self.adapter.call = 0
        self.estimates = statistics_phase(self.adapter)

    def finish(self, rec) -> None:
        self.database.checkpoint()
        super().finish(rec)

    def verify(self, rec) -> None:
        want = flatten(recompute(self.prepared))
        got = flatten(self.estimates)
        rec.check("estimate names", set(got) == set(want), str(set(got) ^ set(want)))
        for name, expected in want.items():
            value = got.get(name, float("nan"))
            rec.check(
                f"estimate {name} against NumPy",
                bool(np.isclose(value, expected, rtol=1e-9)),
                f"{value} != {expected}",
            )
        self.conn.close()
        repro.shutdown()
        rec.native["reopen_s"] = reopen_s(rec, self.directory, TABLE, PERSONS)
