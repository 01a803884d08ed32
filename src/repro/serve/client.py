"""Tiny stdlib client for a running ``repro serve`` instance.

It speaks the server's HTTP/1.1 subset (:mod:`repro.serve.http11`) on a
plain socket, one write per request.  A reply the subset cannot frame
(a ``Transfer-Encoding``, no ``Content-Length``, a bad status line, a
short body) is a :class:`ServeClientError`; interim replies are skipped.
Each calling thread keeps one connection to the server and reuses it,
so one client may be shared across threads; a thread's connection
closes when the thread ends, on a ``Connection: close`` reply, or on
:meth:`ServeClient.close`.  When the server has closed a reused
connection (it drops idle ones after its read timeout), the client
reconnects and sends the request once more: a query is a pure function
of its text, so a resend is safe.  The client connects directly; it
does not read proxy settings from the environment.

HTTP error bodies are parsed back into
:class:`~repro.serve.protocol.ErrorReply` and surfaced as
:class:`ServeClientError` carrying the structured kind, detail, and
(for parse errors) line number.

The client can optionally retry transient failures: construct it with
``retries > 0`` and 503 answers (server saturated or shutting down) and
transport errors are retried with exponential backoff, honouring the
server's ``Retry-After`` header when it suggests a longer wait.
Non-transient errors (4xx, 500) are never retried.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
import weakref
from typing import Dict, Optional, Tuple
from urllib.parse import urlsplit

from .http11 import HeadError, content_length, read_fields, read_line
from .protocol import (
    ErrorReply,
    HealthReply,
    ProtocolError,
    QueryRequest,
    QueryResponse,
    StatsReply,
    parse_message,
)

__all__ = ["ServeClient", "ServeClientError"]


class ServeClientError(RuntimeError):
    """A structured error answer (or transport failure) from the server."""

    def __init__(
        self,
        detail: str,
        kind: str = "transport_error",
        status: Optional[int] = None,
        line: Optional[int] = None,
        retry_after: Optional[float] = None,
    ):
        prefix = f"[{kind}" + (f"/{status}" if status is not None else "") + "] "
        super().__init__(prefix + detail)
        self.kind = kind
        self.status = status
        self.detail = detail
        self.line = line
        #: the server's Retry-After suggestion in seconds, when it sent one
        self.retry_after = retry_after

    @property
    def retryable(self) -> bool:
        """Transient by construction: worth retrying with backoff."""
        return self.status == 503 or self.status is None


def _retry_after_seconds(value: Optional[str]) -> Optional[float]:
    """Parse a numeric ``Retry-After`` value (HTTP-date form is rare
    enough from our own server to ignore)."""
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None


_STATUS_LINE = re.compile(r"HTTP/[0-9]\.[0-9] ([0-9]{3})(?: |$)")


class _Connection:
    """A thread's kept-alive socket and its reader, closed when it is
    collected: a thread that ends drops the only reference to it."""

    def __init__(self, address: Tuple[str, int], host: str, timeout: float):
        self.address, self.host, self.timeout = address, host, timeout
        self.sock: Optional[socket.socket] = None

    def connect(self) -> None:
        self.sock = socket.create_connection(self.address, self.timeout)
        # a request's one write leaves without waiting for ACKs
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def close(self) -> None:
        sock, self.sock = self.sock, None
        if sock is not None:
            self.rfile.close()
            sock.close()

    __del__ = close

    def request(
        self, method: str, path: str, body: Optional[bytes]
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Send one request and read its whole reply (status, fields by
        lower-case name, body), so the connection is ready for the next."""
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        self.sock.sendall((head + "\r\n").encode("ascii") + (body or b""))
        status = 100
        while status < 200:  # an interim reply is a head alone
            line = read_line(self.rfile)
            match = _STATUS_LINE.match(line)
            if match is None:
                raise HeadError(502, f"bad status line {line[:80]!r}")
            status = int(match[1])
            fields = read_fields(self.rfile)
        length = content_length(fields)
        if length is None:
            raise HeadError(502, "a reply without Content-Length")
        payload = self.rfile.read(length)
        if len(payload) < length:
            raise ConnectionResetError(f"the reply ended {len(payload)} bytes in")
        if "close" in fields.get("connection", "").lower():
            self.close()
        return status, fields, payload


class ServeClient:
    """Blocking HTTP client bound to one server base URL.

    Threads may share one client: each gets its own kept-alive
    connection, which :meth:`close` (or leaving a ``with`` block)
    closes.  ``retries`` is the number of *extra* attempts after the first for
    transient failures (503, connection errors); waits grow as
    ``backoff_base * 2**n`` capped at ``backoff_cap``, and a server
    ``Retry-After`` hint raises (never lowers below) the computed wait.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 60.0,
        retries: int = 0,
        backoff_base: float = 0.25,
        backoff_cap: float = 5.0,
    ):
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.base_url = base_url.rstrip("/")
        url = urlsplit(self.base_url)
        if url.scheme != "http" or not url.hostname or not base_url.isascii():
            raise ValueError(f"expected an http:// URL, got {base_url!r}")
        # where to connect, the Host field, and a path prefix for requests
        self._address = (url.hostname, url.port or 80)
        self._netloc = url.netloc
        self._prefix = url.path
        self.timeout = timeout
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._local = threading.local()
        # the live threads' connections, for close(); a thread's own
        # reference in ``_local`` is the one that keeps it open
        self._connections: "weakref.WeakSet[_Connection]" = weakref.WeakSet()
        self._lock = threading.Lock()

    def _connection(self) -> _Connection:
        """The calling thread's connection, made on its first request
        (it connects lazily, and again after any close)."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = _Connection(self._address, self._netloc, self.timeout)
            self._local.conn = conn
            with self._lock:
                self._connections.add(conn)
        return conn

    def close(self) -> None:
        """Close every connection this client holds open.  The client
        stays usable: a later request connects again."""
        with self._lock:
            connections = list(self._connections)
        for conn in connections:
            conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _exchange(
        self, path: str, body: Optional[bytes]
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Send one request on this thread's connection and read the
        whole reply: its status, fields and body."""
        conn = self._connection()
        method = "GET" if body is None else "POST"
        while True:  # twice at most: after close() the next try connects
            reused = conn.sock is not None
            try:
                if not reused:
                    conn.connect()
                return conn.request(method, self._prefix + path, body)
            except (OSError, HeadError) as exc:
                conn.close()
                if not (reused and isinstance(exc, ConnectionError)):
                    raise ServeClientError(
                        str(exc) or type(exc).__name__
                    ) from exc
                # the server closed a kept-alive connection (an idle one
                # past its read timeout): connect and send again

    def _request_once(self, path: str, body: Optional[bytes] = None):
        status, fields, raw = self._exchange(path, body)
        if 200 <= status < 300:
            return parse_message(raw.decode("utf-8"))
        text = raw.decode("utf-8", errors="replace")
        retry_after = _retry_after_seconds(fields.get("retry-after"))
        try:
            reply = parse_message(text)
        except (ProtocolError, json.JSONDecodeError):
            raise ServeClientError(
                text.strip() or f"HTTP {status}",
                status=status,
                retry_after=retry_after,
            ) from None
        if isinstance(reply, ErrorReply):
            raise ServeClientError(
                reply.detail,
                kind=reply.error,
                status=status,
                line=reply.line,
                retry_after=retry_after,
            )
        raise ServeClientError(
            text.strip(), status=status, retry_after=retry_after
        )

    def _request(self, path: str, body: Optional[bytes] = None):
        for attempt in range(self.retries + 1):
            try:
                return self._request_once(path, body)
            except ServeClientError as exc:
                if attempt >= self.retries or not exc.retryable:
                    raise
                wait = min(
                    self.backoff_cap, self.backoff_base * (2 ** attempt)
                )
                if exc.retry_after is not None:
                    wait = max(wait, exc.retry_after)
                time.sleep(wait)
        raise AssertionError("unreachable")  # pragma: no cover

    def query(
        self,
        circuit: str,
        fmt: str = "aiger",
        num_iterations: Optional[int] = None,
    ) -> QueryResponse:
        request = QueryRequest(
            circuit=circuit, fmt=fmt, num_iterations=num_iterations
        )
        reply = self._request("/query", request.to_json().encode("utf-8"))
        if not isinstance(reply, QueryResponse):
            raise ServeClientError(
                f"expected {QueryResponse.TYPE_NAME}, got {reply.TYPE_NAME}",
                kind="protocol_error",
            )
        return reply

    def stats(self) -> StatsReply:
        reply = self._request("/stats")
        if not isinstance(reply, StatsReply):
            raise ServeClientError(
                f"expected {StatsReply.TYPE_NAME}, got {reply.TYPE_NAME}",
                kind="protocol_error",
            )
        return reply

    def health(self) -> bool:
        reply = self._request("/healthz")
        return isinstance(reply, HealthReply) and reply.status == "ok"
