"""HTTP front end for the inference service (stdlib only).

Endpoints:

* ``POST /query`` — a :class:`~repro.serve.protocol.QueryRequest`
  payload; answers 200 with a ``QueryResponse``, 400 with a structured
  ``ErrorReply`` for protocol/parse/circuit faults (parse errors carry
  the offending line), 503 when the batcher is shutting down or its
  queue is full (with a ``Retry-After`` header inviting a backed-off
  retry), 500 for anything unexpected.
* ``GET /stats`` — cache/batcher/request counters (``StatsReply``).
* ``GET /healthz`` — liveness probe.

Connections speak the HTTP/1.1 subset of :mod:`repro.serve.http11` and
are kept alive: one handler thread per connection answers its requests
in turn, and only parses and waits on the micro-batcher, so the model
stays single-threaded (see :mod:`repro.serve.batcher`).  Each reply goes
out in one write on a ``TCP_NODELAY`` socket, so a kept-alive client
never waits on a delayed ACK; a head the subset refuses gets a
``protocol_error`` and ``Connection: close``.  A connection idle for
:data:`READ_TIMEOUT_S` is closed, and :meth:`ServeServer.close` ends
every connection still open.  One that stalls mid-request for as long,
sends a body shorter than its ``Content-Length`` or goes away
mid-exchange is dropped without a reply, so its handler thread ends.
"""

from __future__ import annotations

import functools
import re
import socket
import socketserver
import sys
import threading
import time
from http import HTTPStatus
from typing import Optional, Tuple

from ..aig.errors import CircuitParseError
from .batcher import BatcherClosed, BatcherSaturated
from .http11 import HeadError, content_length, read_fields, read_line
from .protocol import (
    ErrorReply,
    HealthReply,
    Message,
    ProtocolError,
    QueryRequest,
    parse_message,
)
from .service import CircuitRejected, InferenceService

__all__ = ["ServeServer"]

_MAX_BODY_BYTES = 64 * 1024 * 1024

#: Retry-After seconds sent with saturation 503s — a second is many
#: passes, so by then the queue has usually drained below the bound
RETRY_AFTER_S = 1

#: seconds a connection may stall in a read (a request line, headers, a
#: body, or idle keep-alive) before its handler thread drops it
READ_TIMEOUT_S = 30.0


_STATUS_LINES = {s.value: f"HTTP/1.1 {s.value} {s.phrase}\r\n" for s in HTTPStatus}
_SERVER = f"repro-serve/1 Python/{sys.version.split()[0]}"
_REQUEST_LINE = re.compile(r"(\S+)\s+(\S+)\s+HTTP/([0-9]{1,10})\.([0-9]{1,10})")
# the access log escapes control characters, as the stdlib's does
_LOG_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}
_LOG_ESCAPES[ord("\\")] = "\\\\"


@functools.lru_cache(maxsize=1)
def _imf_fixdate(second: int) -> str:
    """``Date`` for a Unix second: ``asctime`` names days and months in
    English whatever the locale, where ``strftime`` follows it."""
    day, month, mday, hms, year = time.asctime(time.gmtime(second)).split()
    return f"{day}, {int(mday):02d} {month} {year} {hms} GMT"


def _request_line(line: str) -> Tuple[str, str, Tuple[int, int]]:
    """Method, path and version of a request line: 400, 505 or 501 else."""
    match = _REQUEST_LINE.fullmatch(line.strip())
    if match is None:
        raise HeadError(400, f"malformed request line {line[:80]!r}")
    method, path, version = match[1], match[2], (int(match[3]), int(match[4]))
    if version >= (2, 0):
        raise HeadError(505, f"HTTP/{match[3]}.{match[4]} is not supported")
    if method not in ("GET", "POST"):
        raise HeadError(501, f"unsupported method {method[:80]!r}")
    if path.startswith("//"):  # never read as a host, as the stdlib does
        path = "/" + path.lstrip("/")
    return method, path, version


class _Handler(socketserver.StreamRequestHandler):
    """One connection's thread: reads its requests and answers each."""

    # TCP_NODELAY: a reply's one write leaves without waiting for ACKs
    disable_nagle_algorithm = True

    @property
    def service(self) -> InferenceService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing -------------------------------------------------------
    def setup(self) -> None:
        # StreamRequestHandler applies ``timeout`` to the socket; read
        # per connection so the module constant stays the one setting
        self.timeout = READ_TIMEOUT_S
        super().setup()

    def handle(self) -> None:
        try:
            while self._answer():
                pass
        except OSError:  # timed out, reset or closed mid-request
            pass

    def _answer(self) -> bool:
        """Answer one request; whether the connection stays open."""
        self.requestline, self.close_connection = "", True
        try:
            self.requestline = read_line(self.rfile, 414)
            method, path, version = _request_line(self.requestline)
            fields = read_fields(self.rfile)
            length = content_length(fields)
        except HeadError as exc:
            self._send_error_reply(exc.status, "protocol_error", str(exc))
            return False
        connection = fields.get("connection", "").lower()
        self.close_connection = connection == "close" or (
            version < (1, 1) and connection != "keep-alive"
        )
        if method == "GET":
            self._get(path, length)
        else:
            expect = fields.get("expect", "").lower() == "100-continue"
            self._post(path, length, expect and version >= (1, 1))
        return not self.close_connection

    def _send(
        self,
        status: int,
        message: Message,
        retry_after: Optional[int] = None,
    ) -> None:
        body = (message.to_json() + "\n").encode("utf-8")
        head = (
            f"{_STATUS_LINES[status]}Server: {_SERVER}\r\n"
            f"Date: {_imf_fixdate(int(time.time()))}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if retry_after is not None:
            head += f"Retry-After: {retry_after}\r\n"
        if self.close_connection:
            head += "Connection: close\r\n"
        if self.server.verbose:  # the stdlib server's access line
            request = f'"{self.requestline}" {status} -'.translate(_LOG_ESCAPES)
            stamp = time.strftime("%d/%b/%Y %H:%M:%S")
            sys.stderr.write(f"{self.client_address[0]} - - [{stamp}] {request}\n")
        # the head and the body leave in one write: the head sent alone
        # holds the body back on a kept-alive connection until the
        # client's delayed ACK (~40 ms)
        self.wfile.write((head + "\r\n").encode("latin-1") + body)

    def _send_error_reply(
        self,
        status: int,
        kind: str,
        detail: str,
        line: Optional[int] = None,
        retry_after: Optional[int] = None,
    ) -> None:
        self._send(
            status,
            ErrorReply(error=kind, detail=detail, line=line),
            retry_after=retry_after,
        )

    # -- endpoints ------------------------------------------------------
    def _get(self, path: str, length: Optional[int]) -> None:
        if length is not None:
            # a GET body is never read, so the reply ends the connection
            self.close_connection = True
        if path == "/healthz":
            self._send(200, HealthReply())
        elif path == "/stats":
            self._send(200, self.service.stats())
        else:
            self._send_error_reply(404, "not_found", f"no such path {path!r}")

    def _post(self, path: str, length: Optional[int], expect_continue: bool):
        if path != "/query":
            # a reply sent before the body is read ends the connection,
            # or the unread body would be parsed as the next request
            self.close_connection = True
            self._send_error_reply(404, "not_found", f"no such path {path!r}")
            return
        if not length or length > _MAX_BODY_BYTES:
            self.close_connection = True
            self._send_error_reply(
                400, "protocol_error", "Content-Length required (and bounded)"
            )
            return
        if expect_continue:
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(length)
        if len(body) < length:
            # the client closed before its body was complete: there is
            # no request to answer, and nobody left to read a reply
            raise ConnectionResetError("the request body ended early")
        try:
            message = parse_message(body.decode("utf-8", errors="replace"))
            if not isinstance(message, QueryRequest):
                raise ProtocolError(
                    f"POST /query expects {QueryRequest.TYPE_NAME}, got "
                    f"{message.TYPE_NAME}"
                )
            response = self.service.query(message)
        except ProtocolError as exc:
            self._send_error_reply(400, "protocol_error", str(exc))
        except CircuitParseError as exc:
            self._send_error_reply(400, "parse_error", str(exc), line=exc.line)
        except CircuitRejected as exc:
            self._send_error_reply(400, "circuit_error", str(exc))
        except BatcherSaturated as exc:
            # deliberate load shedding: the queue is full right now, and
            # Retry-After tells well-behaved clients when to come back
            self._send_error_reply(
                503, "saturated", str(exc), retry_after=RETRY_AFTER_S
            )
        except BatcherClosed as exc:
            # shutdown race, not a server fault: the client may retry
            # against a live replica
            self._send_error_reply(503, "unavailable", str(exc))
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._send_error_reply(
                500, "internal_error", f"{type(exc).__name__}: {exc}"
            )
        else:
            self._send(200, response)


class _HTTPServer(socketserver.ThreadingTCPServer):
    """One daemon handler thread per connection, each connection's socket
    tracked until its handler ends, so :meth:`close_connections` can end
    the threads that wait on idle kept-alive connections."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, *args, **kwargs):
        self._connections = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def close_connections(self) -> None:
        """Shut every open connection down: a handler blocked reading
        reads end-of-file and ends, a reply still being written fails."""
        with self._connections_lock:
            connections = list(self._connections)
        for request in connections:
            try:
                request.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its peer or its handler
                pass


class ServeServer:
    """The threaded HTTP server wrapping one :class:`InferenceService`."""

    def __init__(
        self,
        service: InferenceService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ):
        self.service = service
        self._httpd = _HTTPServer((host, port), _Handler)
        self._httpd.service = service  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self._httpd.server_address[1])

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`shutdown` is called."""
        self._httpd.serve_forever(poll_interval=0.2)

    def shutdown(self) -> None:
        """Stop ``serve_forever`` from another thread."""
        self._httpd.shutdown()

    def close(self) -> None:
        """Release the listening socket, drain the service's worker thread
        and shut every open connection down, so the handler threads of
        idle kept-alive connections end now, not after
        :data:`READ_TIMEOUT_S`."""
        self._httpd.server_close()
        self.service.close()
        self._httpd.close_connections()

    def __enter__(self) -> "ServeServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def describe(server: ServeServer) -> str:
    """One-line startup banner."""
    svc = server.service
    return (
        f"serving {svc.model_label} on http://{server.host}:{server.port} "
        f"(cache {svc.cache.capacity}, queue<= {svc.batcher.max_queue})"
    )
