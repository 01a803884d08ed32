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

Connections are HTTP/1.1 and kept alive: ``ThreadingHTTPServer`` gives
one handler thread per connection, which answers its requests in turn.
Handler threads only parse and wait on the micro-batcher, so the model
itself stays single-threaded (see :mod:`repro.serve.batcher`).  Each
reply goes out in one write on a ``TCP_NODELAY`` socket, so a kept-alive
client never waits on a delayed ACK.  A connection idle for
:data:`READ_TIMEOUT_S` is closed, and :meth:`ServeServer.close` ends
every connection still open.  One that stalls mid-request for as
long, sends a body shorter than its ``Content-Length`` or goes away
mid-exchange is dropped without a reply, so its handler thread ends.
"""

from __future__ import annotations

import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..aig.errors import CircuitParseError
from .batcher import BatcherClosed, BatcherSaturated
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


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
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

    def handle_one_request(self) -> None:
        # the stdlib drops a timed-out connection itself; a client that
        # went away mid-exchange would otherwise end in a traceback
        try:
            super().handle_one_request()
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def log_message(self, format: str, *args) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _send(
        self,
        status: int,
        message: Message,
        retry_after: Optional[int] = None,
    ) -> None:
        body = (message.to_json() + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(retry_after))
        if self.close_connection:
            self.send_header("Connection", "close")
        # status line, headers and body leave in one write: sent alone
        # (as end_headers() would), the headers hold the body back on a
        # kept-alive connection until the client's delayed ACK (~40 ms).
        # So the blank line and the body join the buffer send_header fills
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

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
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if "Content-Length" in self.headers or "Transfer-Encoding" in self.headers:
            # a GET body is never read, so the reply ends the connection
            self.close_connection = True
        if self.path == "/healthz":
            self._send(200, HealthReply())
        elif self.path == "/stats":
            self._send(200, self.service.stats())
        else:
            self._send_error_reply(404, "not_found", f"no such path {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        if self.path != "/query":
            # a reply sent before the body is read ends the connection,
            # or the unread body would be parsed as the next request
            self.close_connection = True
            self._send_error_reply(404, "not_found", f"no such path {self.path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length <= 0 or length > _MAX_BODY_BYTES:
            self.close_connection = True
            self._send_error_reply(
                400, "protocol_error", "Content-Length required (and bounded)"
            )
            return
        body = self.rfile.read(length)
        if len(body) < length:
            # the client closed before its body was complete: there is
            # no request to answer, and nobody left to read a reply
            self.close_connection = True
            return
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


class _HTTPServer(ThreadingHTTPServer):
    """One daemon handler thread per connection, each connection's socket
    tracked until its handler ends, so :meth:`close_connections` can end
    the threads that wait on idle kept-alive connections."""

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
