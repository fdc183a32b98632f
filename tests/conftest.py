"""Shared fixtures: fresh embedded databases, tiny TPC-H data, adapters."""

from __future__ import annotations

import importlib.util

import pytest

import repro
from repro.core.database import Database


def pytest_addoption(parser):
    # ``timeout`` in pyproject.toml is pytest-timeout's per-test ceiling;
    # where the plugin is not installed, declare the key so pytest does not
    # warn about an unknown option (the plugin registers it itself)
    if importlib.util.find_spec("pytest_timeout") is None:
        parser.addini("timeout", "per-test timeout in seconds (pytest-timeout)")


@pytest.fixture
def db():
    """A fresh in-memory embedded database (direct instance, no singleton)."""
    database = Database(None)
    yield database
    database.shutdown()


@pytest.fixture
def conn(db):
    """A connection to the fresh in-memory database."""
    connection = db.connect()
    yield connection
    connection.close()


@pytest.fixture
def persistent_db(tmp_path):
    """A fresh persistent database in a temp directory."""
    database = Database(str(tmp_path / "db"))
    yield database
    database.shutdown()


@pytest.fixture(scope="session")
def tpch_tiny():
    """Deterministic tiny TPC-H dataset shared across the session."""
    from repro.workloads.tpch import generate

    return generate(0.002, seed=42)


@pytest.fixture(scope="session")
def tpch_small():
    """Slightly larger TPC-H dataset for integration/correctness tests."""
    from repro.workloads.tpch import generate

    return generate(0.01, seed=42)


@pytest.fixture
def tpch_conn(db, tpch_tiny):
    """Connection with the tiny TPC-H dataset loaded."""
    from repro.workloads.tpch import load

    connection = db.connect()
    load(connection, tpch_tiny)
    yield connection
    connection.close()
