"""Correctness oracles shared by the workloads.  Every check goes through
``Recorder.check``: a failed one is a failed op and the command exits non-zero.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.fuzz.compare import normalize_rows, rows_equivalent
from repro.storage.types import days_to_date


def check_rows(rec, what: str, got: list, want: list) -> None:
    """Two row lists as multisets, NULL-aware, floats under tolerance."""
    rec.check(
        what,
        rows_equivalent(normalize_rows(got), normalize_rows(want), ordered=False),
        f"{len(got)} rows against {len(want)} expected",
    )


def _iso_dates(values) -> list:
    array = np.asarray(values)
    if array.dtype.kind == "M":
        return array.astype("datetime64[D]").astype(str).tolist()
    return [days_to_date(int(v)).isoformat() for v in array]


def columns_to_rows(columns: dict) -> list:
    """{name: array} -> row tuples; date columns (datetime64 from the engine,
    epoch days from the frames library) become ISO strings on both sides."""
    lists = [
        _iso_dates(values) if "date" in name else np.asarray(values).tolist()
        for name, values in columns.items()
    ]
    return list(zip(*lists))


def column_checksum(values) -> float | int:
    """Order-sensitive for text (crc32 of the joined strings), a float sum
    for numbers; dates are compared as epoch days."""
    array = np.asarray(values)
    if array.dtype == object:
        return zlib.crc32("\x1f".join(array.tolist()).encode("utf-8"))
    if array.dtype.kind == "M":
        array = array.astype("datetime64[D]").astype(np.int64)
    return float(array.astype(np.float64).sum())


def check_columns(rec, what: str, got: dict | None, want: dict) -> None:
    """Row count and per-column checksum of a round trip."""
    got = got or {}
    nrows = len(next(iter(want.values())))
    rec.check(
        f"{what}: row count",
        all(len(col) == nrows for col in got.values()) and len(got) == len(want),
        f"{len(got)} columns, expected {len(want)} x {nrows} rows",
    )
    for name, expected in want.items():
        if name not in got or len(got[name]) != nrows:
            continue
        a, b = column_checksum(got[name]), column_checksum(expected)
        same = a == b if isinstance(a, int) else bool(np.isclose(a, b, rtol=1e-9))
        rec.check(f"{what}: checksum of {name}", same, f"{a} != {b}")


