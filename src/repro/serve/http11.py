"""The HTTP/1.1 subset ``repro serve`` speaks, read at both of its ends.

A message is a head (a start line, then ``name: value`` lines up to a
blank line; CRLF or bare LF) and a body of exactly ``Content-Length``
bytes: no chunked bodies, folded lines, HTTP/2, upgrades or proxies.
Heads are read with the stdlib's limits (65,536-byte lines, 100 lines).
"""

from __future__ import annotations

from typing import BinaryIO, Dict, Optional

__all__ = ["HeadError", "content_length", "read_fields", "read_line"]

#: bytes in a head line (its line end included), and lines of fields in a
#: head (the blank one included): the stdlib's limits
MAX_LINE, MAX_LINES = 65536, 100


class HeadError(Exception):
    """A head this subset refuses; ``status`` is the server's reply, after
    which it closes the connection, since what follows cannot be framed."""

    def __init__(self, status: int, detail: str):
        super().__init__(detail)
        self.status = status


def read_line(rfile: BinaryIO, status: int = 431) -> str:
    """One line of a head without its line end; ``status`` refuses a line
    over :data:`MAX_LINE` bytes.  A connection that ends first is reset."""
    line = rfile.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise HeadError(status, f"a head line is longer than {MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise ConnectionResetError("the connection closed mid-head")
    return line.rstrip(b"\r\n").decode("latin-1")


def read_fields(rfile: BinaryIO) -> Dict[str, str]:
    """A head's fields up to its blank line, by lower-case name (a repeated
    field's values joined with ``", "``); space around a name is refused."""
    fields: Dict[str, str] = {}
    for _ in range(MAX_LINES):
        line = read_line(rfile)
        if not line:
            return fields
        name, colon, value = line.partition(":")
        if not (colon and name and name == name.strip()):
            raise HeadError(400, f"malformed header line {line[:80]!r}")
        name, value = name.lower(), value.strip()
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    raise HeadError(431, f"more than {MAX_LINES} header lines")


def content_length(fields: Dict[str, str]) -> Optional[int]:
    """The body length a head declares, or None.  A ``Transfer-Encoding``
    is refused, and so is a length but of at most 18 ASCII digits (``int``
    reads ``+1`` and ``1_0`` too) or repeated with another value: the
    body's end would be a guess (RFC 9112, section 6.3)."""
    if "transfer-encoding" in fields:
        raise HeadError(400, "Transfer-Encoding is not supported")
    value = fields.get("content-length")
    if value is None:
        return None
    lengths = {length.strip() for length in value.split(",")}
    length = lengths.pop()
    if lengths or len(length) > 18 or not (length.isascii() and length.isdigit()):
        raise HeadError(400, f"invalid Content-Length {value!r}")
    return int(length)
