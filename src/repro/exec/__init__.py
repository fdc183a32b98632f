"""Morsel-driven pipeline-parallel query execution (``repro.exec``).

The interpreter executes MAL programs column-at-a-time.  With
``parallel=True`` it hands the program to this package first, which
partitions it into pipeline *fragments* at blocking boundaries (sort,
full aggregate, top-N merge, join build sides), splits the base table
into fixed-size morsels, and runs the whole fragment per morsel on the
shared worker pool — selection vectors and aggregate states stay thread-local, and
the aggregates' merge step combines the states at the breaker (HyPer's
morsel-driven parallelism, grafted onto the paper's Figure 2 mitosis).

Modules (imported lazily to keep ``repro.mal`` <-> ``repro.exec`` free of
import cycles):

``morsels``    the morsel splitter and per-morsel result packer
``fragments``  pipeline-breaker analysis over ``repro.mal.program``
``executor``   the morsel dispatcher driving the worker pool
``stats``      live executor counters behind ``sys.exec_stats``
"""

from __future__ import annotations

__all__ = [
    "analyze_program",
    "morsel_bounds",
    "render_fragments",
    "try_morsel_execute",
    "ExecStats",
]

_LAZY = {
    "analyze_program": "repro.exec.fragments",
    "render_fragments": "repro.exec.fragments",
    "morsel_bounds": "repro.exec.morsels",
    "try_morsel_execute": "repro.exec.executor",
    "ExecStats": "repro.exec.stats",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.exec' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
