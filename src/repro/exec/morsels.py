"""Morsel splitting and packing of per-morsel results.

The morsel-driven fragment executor splits its base table here and packs
the per-morsel outputs back into one value.  The old interpreter heuristic
(``max(min_parallel_rows // 2, ceil(n / workers))``) could hand out a
single oversized chunk just above the parallel threshold and left a tiny
imbalanced tail chunk; this splitter always produces evenly sized
morsels (row counts differing by at most one) and widens the morsel
count to keep every worker busy when the input is barely large enough.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MIN_MORSEL_ROWS", "morsel_bounds", "pack_values"]

#: Below this many rows per morsel, splitting is pure dispatch overhead.
MIN_MORSEL_ROWS = 8192


def morsel_bounds(n: int, morsel_rows: int, workers: int = 1) -> list:
    """Split ``n`` rows into evenly sized ``(start, stop)`` morsels.

    Targets ``morsel_rows`` rows per morsel; when that yields fewer
    morsels than there are workers, the count grows toward ``workers``
    as long as each morsel keeps at least :data:`MIN_MORSEL_ROWS` rows.
    Sizes differ by at most one row, so there is no undersized tail.
    """
    if n <= 0:
        return []
    morsel_rows = max(1, morsel_rows)
    count = -(-n // morsel_rows)  # ceil
    if workers > 1 and count > 1:
        count = max(count, min(workers, max(1, n // MIN_MORSEL_ROWS)))
    count = min(count, n)
    base, extra = divmod(n, count)
    bounds = []
    start = 0
    for index in range(count):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def pack_values(results: list):
    """Concatenate per-morsel kernel outputs (the "pack" of paper Fig. 2).

    Accepts the value shapes that flow between pipeline instructions:
    vectors (``V``), predicates (``BoolVec``), and raw id arrays.  Import
    of the vector types is deferred so this module stays import-cycle
    free (``repro.mal.interpreter`` imports it at module load).
    """
    from repro.mal.vectors import BoolVec, V

    first = results[0]
    if isinstance(first, BoolVec):
        truth = np.concatenate([r.truth for r in results])
        if any(r.valid is not None for r in results):
            valid = np.concatenate(
                [
                    r.valid
                    if r.valid is not None
                    else np.ones(len(r.truth), dtype=bool)
                    for r in results
                ]
            )
            return BoolVec(truth, valid)
        return BoolVec(truth)
    if isinstance(first, V):
        if first.is_scalar:
            return first
        if first.type.is_variable and not all(
            r.heap is first.heap for r in results
        ):
            # mixed heaps (some morsels computed fresh strings): go through
            # the object domain, the common denominator
            return V(
                first.type, np.concatenate([r.objects() for r in results])
            )
        return V(
            first.type,
            np.concatenate([r.data for r in results]),
            first.heap,
        )
    return np.concatenate(results)
