"""repro — a Python reproduction of MonetDBLite (CIKM 2018).

An embedded analytical database: columnar storage with NULL sentinels and
duplicate-eliminating string heaps, optimistic MVCC, a SQL front-end, a
MAL-style column-at-a-time engine with automatic indexing and morsel-driven
parallel execution, zero-copy/lazy NumPy result transfer — plus the
substrates the paper's evaluation compares against (an embedded Volcano
row store, socket-served configurations, and a dataframe library).

Quickstart::

    import repro

    db = repro.startup()                 # in-memory; pass a path to persist
    conn = db.connect()
    conn.execute("CREATE TABLE t (a INT, b VARCHAR(10))")
    conn.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
    print(conn.query("SELECT a, b FROM t ORDER BY a").fetchall())
    repro.shutdown()
"""

from repro.core import Connection, Database, Result, shutdown, startup
from repro.errors import DatabaseError

__version__ = "0.1.0"

__all__ = [
    "Connection",
    "Database",
    "Result",
    "DatabaseError",
    "startup",
    "shutdown",
    "__version__",
]


def connect(directory: str | None = None, **config) -> Connection:
    """Start a database (if needed) and return a connection to it.

    Convenience one-liner mirroring ``sqlite3.connect``; reuses the active
    database instance when one is already running.
    """
    from repro.core.database import active_database

    database = active_database()
    if database is None:
        database = startup(directory, **config)
    return database.connect()
