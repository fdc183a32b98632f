"""Smoke tests for the CLI entry points and the package conveniences."""

import selectors
import subprocess
import sys
import time

import pytest


class TestPackageConveniences:
    def test_repro_connect_starts_and_reuses(self):
        import repro
        from repro.core.database import active_database

        connection = repro.connect()
        try:
            assert active_database() is not None
            connection.execute("CREATE TABLE c (a INTEGER)")
            # a second connect() reuses the running instance
            second = repro.connect()
            assert second._database is connection._database
            second.close()
        finally:
            connection.close()
            repro.shutdown()

    def test_version(self):
        import repro

        assert repro.__version__


class TestBenchCLI:
    def test_fig6_quick_single_system(self):
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.bench", "fig6",
                "--quick", "--sf", "0.001", "--systems", "MonetDBLite",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "Figure 6" in completed.stdout
        assert "MonetDBLite" in completed.stdout

    def test_invalid_experiment_rejected(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.bench", "fig99"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode != 0

    def test_no_experiment_without_trace_rejected(self):
        completed = subprocess.run(
            [sys.executable, "-m", "repro.bench"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert completed.returncode != 0

    def test_trace_summaries(self):
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.bench", "--trace",
                "--sf", "0.002", "--queries", "1", "6",
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "TPC-H trace summaries" in completed.stdout
        assert "Q1:" in completed.stdout and "Q6:" in completed.stdout
        assert "instructions" in completed.stdout


class TestServerCLI:
    def test_spawned_server_process_round_trip(self, tmp_path):
        from repro.server import RemoteConnection, spawn_server_process

        process, port = spawn_server_process(
            engine="rowstore", protocol="pg", directory=str(tmp_path)
        )
        try:
            client = RemoteConnection("127.0.0.1", port, "pg")
            client.execute("CREATE TABLE s (a INTEGER)")
            client.execute("INSERT INTO s VALUES (41)")
            assert client.query("SELECT a + 1 FROM s").fetchall() == [(42,)]
            client.close()
        finally:
            process.terminate()
            process.wait(timeout=10)

    def test_spawn_gives_up_on_a_silent_child(self, monkeypatch):
        """A child that never announces its port is killed and reaped
        once ``startup_wait`` runs out, not waited on until it exits."""
        from repro.errors import DatabaseError
        from repro.server import spawn_server_process

        real_popen = subprocess.Popen
        children = []

        def sleeping_child(args, **kwargs):
            child = real_popen(
                [sys.executable, "-c", "import time; time.sleep(20)"],
                **kwargs,
            )
            children.append(child)
            return child

        monkeypatch.setattr(subprocess, "Popen", sleeping_child)
        started = time.monotonic()
        with pytest.raises(DatabaseError):
            spawn_server_process(startup_wait=0.5)
        assert time.monotonic() - started < 5.0
        assert children[0].returncode is not None

    def test_max_sessions_flag_sheds_second_client(self):
        """The admission flags reach the server the CLI starts."""
        from repro.errors import DatabaseError
        from repro.server import RemoteConnection

        process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--max-sessions", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, bufsize=0,
        )
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(process.stdout, selectors.EVENT_READ)
                assert selector.select(60), "server did not start"
            line = process.stdout.readline()
            assert line.startswith(b"READY"), line
            port = int(line.split()[1])
            with RemoteConnection("127.0.0.1", port, "pg") as first:
                with pytest.raises(DatabaseError, match="capacity"):
                    RemoteConnection("127.0.0.1", port, "pg")
                assert first.query("SELECT 1").fetchall() == [(1,)]
        finally:
            process.terminate()
            process.wait(timeout=10)
            process.stdout.close()
