"""TCP server hosting either engine behind the wire protocol.

This is the classic thread-per-connection front end — the paper's
comparison-system shape.  The asyncio front end with admission control
lives in :mod:`repro.server.aio`; both share the protocol logic of
:mod:`repro.server.session`.
"""

from __future__ import annotations

import selectors
import socket
import socketserver
import subprocess
import sys
import threading
import time

from repro.errors import DatabaseError, ProtocolError
from repro.server.protocol import (
    HEADER_BYTES,
    MAX_PAYLOAD,
    PROTOCOLS,
    ProtocolConfig,
    read_message,
    write_message,
)
from repro.server.session import CLOSE, Session, open_engine

__all__ = ["Server", "spawn_server_process"]


class Server:
    """A threaded localhost database server.

    ``engine`` selects the hosted engine: ``"columnar"`` (the MonetDB-server
    configuration: same engine as MonetDBLite, but behind a socket) or
    ``"rowstore"`` (the PostgreSQL/MariaDB-shaped configuration).  The
    server creates its own engine instance directly — a server process is
    its own deployment, so the embedded single-instance guard does not
    apply to it.

    ``allow_binary`` gates the negotiated binary columnar result format;
    disabling it makes the server behave like one predating the ``N``
    handshake (clients fall back to text).  ``max_payload`` caps inbound
    frame sizes.
    """

    def __init__(
        self,
        engine: str = "columnar",
        protocol: str | ProtocolConfig = "pg",
        directory: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float | None = None,
        allow_binary: bool = True,
        max_payload: int = MAX_PAYLOAD,
    ):
        self.engine_kind = engine
        self.protocol = (
            protocol if isinstance(protocol, ProtocolConfig) else PROTOCOLS[protocol]
        )
        self.directory = directory
        self.host = host
        self._requested_port = port
        self._timeout = timeout
        self.allow_binary = allow_binary
        self.max_payload = max_payload
        self._tcp: socketserver.ThreadingTCPServer | None = None
        self._thread: threading.Thread | None = None
        self._database = None

    # -- engine plumbing -----------------------------------------------------------

    def _open_engine(self):
        self._database = open_engine(
            self.engine_kind, self.directory, self._timeout
        )

    def _connect_engine(self):
        return self._database.connect()

    def _stats_incr(self, name: str, amount: int = 1) -> None:
        # RowDatabase has no stats object; the columnar engine does.
        stats = getattr(self._database, "_stats", None)
        if stats is not None:
            stats.incr(name, amount)

    def _send(self, wfile, mtype: bytes, payload: bytes) -> None:
        write_message(wfile, mtype, payload)
        self._stats_incr("bytes_sent", HEADER_BYTES + len(payload))

    # -- lifecycle -----------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._tcp is None:
            raise DatabaseError("server not started")
        return self._tcp.server_address[1]

    def start(self) -> "Server":
        """Bind and serve in a daemon thread; returns self."""
        self._open_engine()
        server = self

        class Handler(socketserver.StreamRequestHandler):
            def setup(self):
                self.request.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
                super().setup()

            def handle(self):
                server._serve_connection(self.rfile, self.wfile)

        class TCP(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True

        self._tcp = TCP((self.host, self._requested_port), Handler)
        self._thread = threading.Thread(
            target=self._tcp.serve_forever, daemon=True, name="repro-server"
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._tcp is not None:
            self._tcp.shutdown()
            self._tcp.server_close()
            self._tcp = None
        if self._database is not None:
            shutdown = getattr(self._database, "shutdown", None) or getattr(
                self._database, "close", None
            )
            if shutdown is not None:
                shutdown()
            self._database = None

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- per-connection protocol loop --------------------------------------------------

    def _serve_connection(self, rfile, wfile) -> None:
        session = Session(
            self._database,
            self._connect_engine(),
            self.protocol,
            engine_kind=self.engine_kind,
            allow_binary=self.allow_binary,
        )
        try:
            self._send(wfile, b"Z", b"")
            wfile.flush()
            while True:
                mtype, payload = read_message(rfile, self.max_payload)
                if mtype is None:
                    return
                self._stats_incr("bytes_received", HEADER_BYTES + len(payload))
                copy_data = None
                copy_aborted = False
                if mtype == b"Q" and session.needs_copy_data(payload):
                    copy_data = self._receive_copy_data(rfile, wfile)
                    if copy_data is None:
                        copy_aborted = True
                frames = session.handle(
                    mtype,
                    payload,
                    copy_data=copy_data,
                    copy_aborted=copy_aborted,
                )
                if frames is CLOSE:
                    return
                for ftype, fpayload in frames:
                    self._send(wfile, ftype, fpayload)
                wfile.flush()
        except ProtocolError as exc:
            # a broken frame is unrecoverable for the stream, but tell the
            # peer why before hanging up (torn writes here are harmless)
            try:
                self._send(wfile, b"E", str(exc).encode("utf-8"))
                wfile.flush()
            except (OSError, ValueError):
                pass
            return
        except ConnectionError:
            return
        finally:
            session.close()

    def _receive_copy_data(self, rfile, wfile) -> bytes | None:
        """``G`` handshake: collect streamed ``d`` frames until ``c``/``f``."""
        self._send(wfile, b"G", b"")
        wfile.flush()
        parts = []
        while True:
            mtype, payload = read_message(rfile, self.max_payload)
            if mtype is None:
                raise ProtocolError("client closed the connection during COPY")
            self._stats_incr("bytes_received", HEADER_BYTES + len(payload))
            if mtype == b"d":
                parts.append(payload)
            elif mtype == b"c":
                return b"".join(parts)
            elif mtype == b"f":
                return None
            else:
                raise ProtocolError(
                    f"unexpected message {mtype!r} during COPY input"
                )


def spawn_server_process(
    engine: str = "columnar",
    protocol: str = "pg",
    directory: str | None = None,
    timeout: float | None = None,
    startup_wait: float = 15.0,
    use_async: bool = False,
):
    """Start a server in a separate Python process; returns (process, port).

    The separate process gives the socket configurations their own memory
    space and interpreter, as in the paper's client/server measurements.
    ``use_async`` spawns the asyncio front end instead of the threaded one.
    A child that has not announced its port within ``startup_wait``
    seconds is killed and reaped, and :class:`DatabaseError` is raised.
    """
    args = [
        sys.executable,
        "-m",
        "repro.server",
        "--engine",
        engine,
        "--protocol",
        protocol,
        "--port",
        "0",
    ]
    if use_async:
        args.append("--async")
    if directory:
        args += ["--directory", directory]
    if timeout:
        args += ["--timeout", str(timeout)]
    # unbuffered, so every byte the selector reports is read by readline()
    process = subprocess.Popen(
        args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, bufsize=0
    )
    deadline = time.monotonic() + startup_wait
    port = None
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(process.stdout, selectors.EVENT_READ)
            while port is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not selector.select(remaining):
                    break
                line = process.stdout.readline()
                if not line:  # end of file: the child exited
                    break
                if line.startswith(b"READY"):
                    port = int(line.split()[1])
    finally:
        if port is None:
            process.kill()
            process.wait()
            process.stdout.close()
    if port is None:
        raise DatabaseError("server process failed to start")
    return process, port
