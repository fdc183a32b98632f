"""Asyncio server front end: high-concurrency accept path with admission
control, backpressure, and a bounded execution pool.

Architecture (DESIGN.md §11):

* **Acceptor + protocol parsing on the event loop.**  One asyncio task
  pair per connection — a *reader* that parses frames and dispatches
  statements, and a *writer* that ships response frames strictly in
  request order.  The loop itself never executes SQL.
* **Bounded worker pool.**  Statements run on a ``ThreadPoolExecutor``
  via ``run_in_executor`` — the engine's kernels are NumPy-heavy and
  release the GIL, so pool threads give real overlap while the loop
  stays responsive to thousands of idle sockets.
* **Admission control.**  ``max_sessions`` caps concurrent connections:
  over-limit clients receive a clean ``E`` frame and are disconnected
  (never silently queued).  ``max_queue_depth`` caps statements queued
  or executing across all sessions, and ``session_quota`` caps one
  session's in-flight pipeline; both shed with an ``E`` + ``Z`` so the
  client sees a normal (failed) statement, not a stall.
* **Graceful drain.**  ``stop()`` closes the listener, lets in-flight
  statements finish (up to ``drain_timeout`` seconds) with their
  responses flushed, then tears down connections, pool, and engine.

The per-message protocol logic is shared with the threaded server via
:class:`repro.server.session.Session`.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.errors import DatabaseError, ProtocolError
from repro.server.protocol import (
    HEADER_BYTES,
    MAX_PAYLOAD,
    PROTOCOLS,
    ProtocolConfig,
    read_message_async,
)
from repro.server.session import CLOSE, Session, open_engine

__all__ = ["AsyncServer"]

_HEADER_PACK = __import__("struct").Struct("<cI").pack


class _Connection:
    """Bookkeeping for one live client connection."""

    __slots__ = ("session", "outq", "reader_task", "writer_task", "writer")

    def __init__(self, session, outq, writer):
        self.session = session
        self.outq = outq
        self.writer = writer
        self.reader_task = None
        self.writer_task = None


class AsyncServer:
    """An asyncio database server with admission control.

    Drop-in alternative to :class:`repro.server.server.Server`: the event
    loop runs in a daemon thread, so ``start()``/``stop()``/``port`` work
    from synchronous code and tests.  Clients, protocol configs, and the
    binary result format are identical between the two front ends.
    """

    def __init__(
        self,
        engine: str = "columnar",
        protocol: str | ProtocolConfig = "pg",
        directory: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float | None = None,
        *,
        max_sessions: int = 256,
        max_queue_depth: int = 128,
        session_quota: int = 8,
        workers: int = 8,
        drain_timeout: float = 5.0,
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
        self.max_sessions = max_sessions
        self.max_queue_depth = max_queue_depth
        self.session_quota = session_quota
        self.workers = workers
        self.drain_timeout = drain_timeout
        self.allow_binary = allow_binary
        self.max_payload = max_payload

        self._database = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._conns: set = set()
        self._queued = 0  # statements queued or executing, all sessions
        self._draining = False
        self._port: int | None = None

    # -- metrics plumbing ----------------------------------------------------------

    @property
    def database(self):
        return self._database

    @property
    def _metrics(self):
        return getattr(self._database, "metrics", None)

    def _incr(self, name: str, amount: int = 1) -> None:
        stats = getattr(self._database, "_stats", None)
        if stats is not None:
            stats.incr(name, amount)

    def _gauge_delta(self, name: str, delta: float) -> None:
        metrics = self._metrics
        if metrics is not None:
            metrics.incr_gauge(name, delta)

    # -- lifecycle -----------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._port is None:
            raise DatabaseError("server not started")
        return self._port

    def start(self) -> "AsyncServer":
        """Open the engine, start the loop thread, bind the listener."""
        self._database = open_engine(
            self.engine_kind, self.directory, self._timeout
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-aio"
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, daemon=True, name="repro-aio-loop"
        )
        self._thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self._open_listener(), self._loop
        )
        try:
            future.result(timeout=15.0)
        except Exception:
            self.stop()
            raise
        return self

    async def _open_listener(self) -> None:
        self._server = await asyncio.start_server(
            self._client_connected, self.host, self._requested_port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    def stop(self) -> None:
        """Graceful drain: finish in-flight work, then tear everything down."""
        if self._loop is not None and self._loop.is_running():
            asyncio.run_coroutine_threadsafe(
                self._shutdown(), self._loop
            ).result(timeout=self.drain_timeout + 10.0)
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._thread is not None:
                self._thread.join(timeout=5.0)
            self._loop.close()
        self._loop = None
        self._thread = None
        self._server = None
        self._port = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._database is not None:
            shutdown = getattr(self._database, "shutdown", None) or getattr(
                self._database, "close", None
            )
            if shutdown is not None:
                shutdown()
            self._database = None

    async def _shutdown(self) -> None:
        self._draining = True  # new statements shed from here on
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = self._loop.time() + self.drain_timeout
        while self._loop.time() < deadline:
            if not self._conns or all(
                conn.outq.empty() and conn.session.inflight == 0
                for conn in self._conns
            ):
                break
            await asyncio.sleep(0.02)
        # give writers a beat to flush final frames, then force-close
        await asyncio.sleep(0)
        for conn in list(self._conns):
            await self._teardown(conn)

    async def _teardown(self, conn: _Connection) -> None:
        self._conns.discard(conn)
        current = asyncio.current_task()
        for task in (conn.reader_task, conn.writer_task):
            if task is not None and task is not current and not task.done():
                task.cancel()
        try:
            conn.writer.close()
        except Exception:
            pass
        conn.session.close()
        metrics = self._metrics
        if metrics is not None:
            metrics.set_gauge("server_sessions", len(self._conns))

    def __enter__(self) -> "AsyncServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- connection handling -------------------------------------------------------

    def _write_frame(self, writer, mtype: bytes, payload: bytes) -> None:
        writer.write(_HEADER_PACK(mtype, len(payload)))
        if payload:
            writer.write(payload)
        self._incr("bytes_sent", HEADER_BYTES + len(payload))

    async def _client_connected(self, reader, writer) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        if self._draining or len(self._conns) >= self.max_sessions:
            # admission control: shed with a clean error frame, never
            # accept unbounded connections into a silent backlog
            self._incr("server_shed_connections")
            reason = (
                "server shutting down"
                if self._draining
                else f"server at capacity (max_sessions={self.max_sessions})"
            )
            self._write_frame(writer, b"E", reason.encode("utf-8"))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        try:
            engine_conn = self._database.connect()
        except Exception as exc:
            self._write_frame(writer, b"E", str(exc).encode("utf-8"))
            writer.close()
            return
        session = Session(
            self._database,
            engine_conn,
            self.protocol,
            engine_kind=self.engine_kind,
            allow_binary=self.allow_binary,
            client_tag="tcp-async",
        )
        conn = _Connection(session, asyncio.Queue(), writer)
        self._conns.add(conn)
        metrics = self._metrics
        if metrics is not None:
            metrics.set_gauge("server_sessions", len(self._conns))
        conn.writer_task = self._loop.create_task(self._writer_loop(conn))
        conn.reader_task = self._loop.create_task(self._reader_loop(reader, conn))

    async def _reader_loop(self, reader, conn: _Connection) -> None:
        session = conn.session
        try:
            self._write_frame(conn.writer, b"Z", b"")
            await conn.writer.drain()
            while True:
                mtype, payload = await read_message_async(
                    reader, self.max_payload
                )
                if mtype is None or mtype == b"X":
                    await conn.outq.put(CLOSE)
                    return
                self._incr("bytes_received", HEADER_BYTES + len(payload))
                copy_data = None
                copy_aborted = False
                if mtype == b"Q" and session.needs_copy_data(payload):
                    # COPY is stop-and-wait: quiesce the pipeline, then
                    # run the G/d/c handshake inline on the loop
                    await self._quiesce(conn)
                    copy_data = await self._receive_copy_data(reader, conn)
                    if copy_data is None:
                        copy_aborted = True
                await self._dispatch(
                    conn, mtype, payload, copy_data, copy_aborted
                )
        except ProtocolError as exc:
            await conn.outq.put([(b"E", str(exc).encode("utf-8"))])
            await conn.outq.put(CLOSE)
        except (ConnectionError, asyncio.CancelledError):
            await conn.outq.put(CLOSE)
        except Exception as exc:  # defensive: never kill the loop silently
            await conn.outq.put([(b"E", str(exc).encode("utf-8"))])
            await conn.outq.put(CLOSE)

    async def _quiesce(self, conn: _Connection) -> None:
        while conn.session.inflight > 0:
            await asyncio.sleep(0.001)

    async def _receive_copy_data(self, reader, conn: _Connection):
        """Inline ``G`` handshake (reader and writer are quiesced)."""
        self._write_frame(conn.writer, b"G", b"")
        await conn.writer.drain()
        parts = []
        while True:
            mtype, payload = await read_message_async(reader, self.max_payload)
            if mtype is None:
                raise ProtocolError("client closed the connection during COPY")
            self._incr("bytes_received", HEADER_BYTES + len(payload))
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

    async def _dispatch(
        self, conn, mtype, payload, copy_data, copy_aborted
    ) -> None:
        session = conn.session
        if self._draining:
            self._incr("server_shed_statements")
            await conn.outq.put(
                [(b"E", b"server shutting down"), (b"Z", b"")]
            )
            return
        if session.inflight >= self.session_quota:
            self._incr("server_shed_statements")
            await conn.outq.put(
                [
                    (
                        b"E",
                        f"session quota exceeded "
                        f"({self.session_quota} statements in flight)"
                        .encode("utf-8"),
                    ),
                    (b"Z", b""),
                ]
            )
            return
        if self._queued >= self.max_queue_depth:
            # backpressure: shed instead of queueing without bound
            self._incr("server_shed_statements")
            await conn.outq.put(
                [
                    (
                        b"E",
                        f"server overloaded (queue depth "
                        f"{self.max_queue_depth} reached)".encode("utf-8"),
                    ),
                    (b"Z", b""),
                ]
            )
            return
        session.inflight += 1
        self._queued += 1
        metrics = self._metrics
        if metrics is not None:
            metrics.set_gauge("server_queue_depth", self._queued)
        enqueued = time.perf_counter()
        future = self._loop.run_in_executor(
            self._pool,
            self._run_statement,
            session,
            mtype,
            payload,
            copy_data,
            copy_aborted,
            enqueued,
        )
        future.add_done_callback(self._statement_done)
        await conn.outq.put(future)

    def _statement_done(self, _future) -> None:
        self._queued -= 1
        metrics = self._metrics
        if metrics is not None:
            metrics.set_gauge("server_queue_depth", self._queued)

    def _run_statement(
        self, session, mtype, payload, copy_data, copy_aborted, enqueued
    ):
        """Worker-pool body: record queue wait, run the session handler."""
        queue_wait_us = (time.perf_counter() - enqueued) * 1e6
        metrics = self._metrics
        if metrics is not None:
            metrics.observe("server_queue_wait_us", queue_wait_us)
        try:
            return session.handle(
                mtype,
                payload,
                copy_data=copy_data,
                copy_aborted=copy_aborted,
                queue_wait_us=queue_wait_us,
            )
        except Exception as exc:  # engine bugs become error frames, not hangs
            return [(b"E", str(exc).encode("utf-8")), (b"Z", b"")]

    async def _writer_loop(self, conn: _Connection) -> None:
        """Ship responses strictly in request order; drain() applies
        TCP backpressure to slow readers."""
        session = conn.session
        try:
            while True:
                item = await conn.outq.get()
                if item is CLOSE:
                    return
                if isinstance(item, list):
                    frames = item
                else:
                    try:
                        frames = await item
                    finally:
                        session.inflight -= 1
                for ftype, fpayload in frames:
                    self._write_frame(conn.writer, ftype, fpayload)
                await conn.writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            return
        finally:
            if conn in self._conns:
                await self._teardown(conn)
