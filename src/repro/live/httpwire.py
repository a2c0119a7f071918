"""Minimal HTTP/1.1 over asyncio streams — just enough for the testbed.

The live testbed deliberately speaks plain HTTP over real sockets (that
is its point: exercising the control plane against OS-level networking,
scheduling jitter and concurrency), but it must not pull in any HTTP
framework the container may not have. This module is the shared wire
layer: request/response serialisation and parsing used by the replica
servers, the metrics endpoints and the client-side proxy transport.

Connections are persistent HTTP/1.1 (``Connection: keep-alive``), as
between a mesh sidecar and its upstreams: every message says whether
its connection stays open, and a peer that says ``close`` gets its
connection closed after the current exchange. Reuse makes framing
load-bearing — a body length that is wrong by one byte desynchronises
every later message on the connection — so :func:`content_length`
rejects anything but one non-negative decimal value, and a request
carrying a body the server will not read is answered with ``close``.
Abandoning a timed-out attempt is unchanged: closing the socket is the
cancellation, exactly like a client tearing down a TCP connection
mid-request, and that connection is simply never reused.
"""

from __future__ import annotations

import asyncio

from repro.errors import MeshError

# A request/status line plus a handful of headers; anything bigger is not
# something this testbed ever sends.
_MAX_HEADER_BYTES = 16384

_REASONS = {200: "OK", 404: "Not Found", 500: "Internal Server Error",
            503: "Service Unavailable"}


async def read_head(reader: asyncio.StreamReader) -> tuple[str, list[str]]:
    """Read one request or response head (first line + header lines).

    Returns ``(first_line, header_lines)``; raises :class:`MeshError` on
    EOF before a complete head or on an oversized head.
    """
    head = await reader.readuntil(b"\r\n\r\n")
    if len(head) > _MAX_HEADER_BYTES:
        raise MeshError("HTTP head too large")
    lines = head.decode("latin-1").split("\r\n")
    first, headers = lines[0], [line for line in lines[1:] if line]
    if not first:
        raise MeshError("empty HTTP head")
    return first, headers


def parse_request_line(line: str) -> tuple[str, str]:
    """``"GET /work HTTP/1.1"`` → ``("GET", "/work")``."""
    parts = line.split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise MeshError(f"malformed request line: {line!r}")
    return parts[0], parts[1]


def parse_status_line(line: str) -> int:
    """``"HTTP/1.1 200 OK"`` → ``200``."""
    parts = line.split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise MeshError(f"malformed status line: {line!r}")
    try:
        return int(parts[1])
    except ValueError as exc:
        raise MeshError(f"malformed status code: {line!r}") from exc


def _header_values(headers: list[str], name: str) -> list[str]:
    """Every value of header ``name`` (case-insensitive), stripped."""
    values = []
    for header in headers:
        key, _sep, value = header.partition(":")
        if key.strip().lower() == name:
            values.append(value.strip())
    return values


def content_length(headers: list[str]) -> int:
    """The Content-Length header value, or 0 when absent.

    Raises :class:`MeshError` on a value that is not a non-negative
    decimal integer and on duplicate headers that disagree: on a reused
    connection either would misframe every later message.
    """
    values = set(_header_values(headers, "content-length"))
    if not values:
        return 0
    if len(values) > 1:
        raise MeshError(f"conflicting Content-Length: {sorted(values)}")
    (value,) = values
    if not (value.isascii() and value.isdigit()):
        raise MeshError(f"bad Content-Length: {value!r}")
    return int(value)


def keep_alive(headers: list[str]) -> bool:
    """Whether the peer lets its connection carry another message.

    HTTP/1.1 connections persist unless a ``Connection`` header lists
    the ``close`` token.
    """
    return not any(token.strip().lower() == "close"
                   for value in _header_values(headers, "connection")
                   for token in value.split(","))


def carries_body(headers: list[str]) -> bool:
    """Whether a message announces a body (a length > 0 or any coding)."""
    return (content_length(headers) > 0
            or bool(_header_values(headers, "transfer-encoding")))


def _connection(keep: bool) -> str:
    return "keep-alive" if keep else "close"


def response_bytes(status: int, body: bytes,
                   content_type: str = "text/plain",
                   keep: bool = True) -> bytes:
    """Serialise one HTTP response; ``keep=False`` announces a close."""
    reason = _REASONS.get(status, "Unknown")
    head = (f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {_connection(keep)}\r\n\r\n")
    return head.encode("latin-1") + body


def request_bytes(method: str, path: str, host: str,
                  keep: bool = True) -> bytes:
    """Serialise one HTTP request (no body); ``keep=False`` asks to close."""
    return (f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Connection: {_connection(keep)}\r\n\r\n").encode("latin-1")


async def close_writer(writer: asyncio.StreamWriter) -> None:
    """Close a stream writer, swallowing teardown races.

    A peer that already reset the connection (an abandoned, timed-out
    attempt) makes ``wait_closed`` raise; shutdown must not care.
    """
    try:
        writer.close()
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
