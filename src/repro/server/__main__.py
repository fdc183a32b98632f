"""CLI entry point: ``python -m repro.server --engine columnar --port 0``.

``--async`` serves through the asyncio front end
(:class:`repro.server.aio.AsyncServer`) with admission control; the
default remains the classic thread-per-connection server.  Any of the
admission flags (``--max-sessions``, ``--queue-depth``,
``--session-quota``, ``--workers``) implies ``--async``, since only that
front end has them.
"""

from __future__ import annotations

import argparse
import signal
import sys

from repro.server.aio import AsyncServer
from repro.server.server import Server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repro database server")
    parser.add_argument("--engine", choices=["columnar", "rowstore"],
                        default="columnar")
    parser.add_argument("--protocol", default="pg",
                        choices=["pg", "mysql", "monetdb"])
    parser.add_argument("--directory", default=None)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=None)
    parser.add_argument("--async", dest="use_async", action="store_true",
                        help="serve through the asyncio front end")
    parser.add_argument("--max-sessions", type=int, default=None,
                        help="connection cap before shedding "
                        "(implies --async; default 256)")
    parser.add_argument("--queue-depth", type=int, default=None,
                        help="global in-flight statement cap "
                        "(implies --async; default 128)")
    parser.add_argument("--session-quota", type=int, default=None,
                        help="per-session in-flight statement cap "
                        "(implies --async; default 8)")
    parser.add_argument("--workers", type=int, default=None,
                        help="execution worker threads "
                        "(implies --async; default 8)")
    parser.add_argument("--no-binary", action="store_true",
                        help="refuse binary result negotiation")
    args = parser.parse_args(argv)

    common = dict(
        engine=args.engine,
        protocol=args.protocol,
        directory=args.directory,
        host=args.host,
        port=args.port,
        timeout=args.timeout,
        allow_binary=not args.no_binary,
    )
    admission = {
        key: value
        for key, value in (
            ("max_sessions", args.max_sessions),
            ("max_queue_depth", args.queue_depth),
            ("session_quota", args.session_quota),
            ("workers", args.workers),
        )
        if value is not None
    }
    if args.use_async or admission:
        server = AsyncServer(**common, **admission)
    else:
        server = Server(**common)
    server.start()
    print(f"READY {server.port}", flush=True)

    stop = {"flag": False}

    def handle(signum, frame):
        stop["flag"] = True

    signal.signal(signal.SIGTERM, handle)
    signal.signal(signal.SIGINT, handle)
    try:
        while not stop["flag"]:
            signal.pause()
    except KeyboardInterrupt:
        pass
    server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
