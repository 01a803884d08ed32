"""Tiny stdlib client for a running ``repro serve`` instance.

``http.client`` only — the same no-new-deps rule as the server.  Each
calling thread keeps one HTTP/1.1 connection to the server and reuses
it, so one client may be shared across threads; a thread's connection
closes when the thread ends, or on :meth:`ServeClient.close`.  When the
server has closed a reused connection (it drops idle ones after its
read timeout), the client reconnects and sends the request once more:
a query is a pure function of its text, so a resend is safe.  The
client connects directly; it does not read proxy settings from the
environment.

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

import http.client
import json
import threading
import time
import weakref
from typing import Optional, Tuple

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


def _retry_after_seconds(headers) -> Optional[float]:
    """Parse a numeric ``Retry-After`` header (HTTP-date form is rare
    enough from our own server to ignore)."""
    if headers is None:
        return None
    value = headers.get("Retry-After")
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except ValueError:
        return None


class _Connection(http.client.HTTPConnection):
    """A thread's kept-alive connection, closed when it is collected:
    a thread that ends drops the only reference to it."""

    def __del__(self) -> None:
        self.close()


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
        scheme, sep, rest = self.base_url.partition("://")
        if not sep or scheme.lower() != "http":
            raise ValueError(f"expected an http:// URL, got {base_url!r}")
        # "host:port" for the connections; a path prefix for the requests
        self._netloc, slash, prefix = rest.partition("/")
        self._prefix = slash + prefix
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
            conn = _Connection(self._netloc, timeout=self.timeout)
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
    ) -> Tuple[http.client.HTTPResponse, bytes]:
        """Send one request on this thread's connection and read the
        whole reply, so the connection is ready for the next one."""
        conn = self._connection()
        method = "GET" if body is None else "POST"
        headers = {} if body is None else {"Content-Type": "application/json"}
        while True:  # twice at most: after close() the next try connects
            reused = conn.sock is not None
            try:
                conn.request(method, self._prefix + path, body=body,
                             headers=headers)
                resp = conn.getresponse()
                return resp, resp.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                if not (reused and isinstance(exc, ConnectionError)):
                    raise ServeClientError(
                        str(exc) or type(exc).__name__
                    ) from exc
                # the server closed a kept-alive connection (an idle one
                # past its read timeout): connect and send again

    def _request_once(self, path: str, body: Optional[bytes] = None):
        resp, raw = self._exchange(path, body)
        if 200 <= resp.status < 300:
            return parse_message(raw.decode("utf-8"))
        text = raw.decode("utf-8", errors="replace")
        retry_after = _retry_after_seconds(resp.headers)
        try:
            reply = parse_message(text)
        except (ProtocolError, json.JSONDecodeError):
            raise ServeClientError(
                text.strip() or f"HTTP {resp.status} {resp.reason}",
                status=resp.status,
                retry_after=retry_after,
            ) from None
        if isinstance(reply, ErrorReply):
            raise ServeClientError(
                reply.detail,
                kind=reply.error,
                status=resp.status,
                line=reply.line,
                retry_after=retry_after,
            )
        raise ServeClientError(
            text.strip(), status=resp.status, retry_after=retry_after
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
