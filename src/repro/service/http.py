"""A minimal HTTP/1.1 layer over asyncio streams — stdlib only.

The service needs exactly four HTTP behaviours: parse small JSON requests,
write JSON responses, stream server-sent events over chunked transfer
encoding, and survive clients that vanish mid-stream.  ``http.server`` is
threaded and ``aiohttp`` would be a new dependency, so this module
implements that minimal slice directly on ``asyncio``'s stream API:

* :func:`read_request` — request line + headers + ``Content-Length`` body,
  with hard size caps (an oversized or malformed request is a clean ``400``,
  never an unbounded read);
* :class:`Router` — method/path dispatch with ``{name}`` path parameters;
* :func:`json_response` / :class:`EventStream` — the two response kinds a
  handler can return;
* :func:`serve_connection` — the per-connection loop: keep-alive for plain
  responses, ``Connection: close`` after a stream, and any library error
  mapped to a JSON error body (:class:`HttpError` → its status,
  :class:`~repro.common.errors.SimulationError` — a simulator fault or a
  simulation worker that died — → 500, any other
  :class:`~repro.common.errors.ReproError` → 400, anything else → 500).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import (
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
)
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.common.errors import ReproError, SimulationError
from repro.service.protocol import ProtocolError, error_payload

MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
}


class HttpError(ReproError):
    """An HTTP-level failure carrying the status code to answer with."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]  # keys lower-cased
    body: bytes

    def json(self) -> object:
        """The body parsed as JSON (``{}`` when empty); 400 on garbage."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise HttpError(400, f"request body is not valid JSON: {exc}") from exc


@dataclass
class Response:
    """A complete (non-streaming) HTTP response."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: List[Tuple[str, str]] = field(default_factory=list)


@dataclass
class EventStream:
    """A streaming response: chunked transfer, one write per yielded event.

    ``events`` yields ``str`` chunks (already formatted, e.g. SSE
    ``data: ...\\n\\n`` records); the connection is closed when the iterator
    finishes or the client disconnects.  Disconnection is *normal* for event
    streams — the generator is closed, nothing is raised to the handler, and
    whatever work the stream was observing keeps running.
    """

    events: AsyncIterator[str]
    content_type: str = "text/event-stream"


def json_response(
    payload: object, status: int = 200, headers: Optional[List[Tuple[str, str]]] = None
) -> Response:
    """A JSON :class:`Response` (the normal handler return value)."""
    body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    return Response(status=status, body=body, headers=list(headers or []))


Handler = Callable[..., Awaitable[Union[Response, EventStream]]]


class Router:
    """Method/path dispatch with ``{name}`` segments.

    A path pattern is matched segment-by-segment; ``{name}`` segments match
    any single non-empty segment and are passed to the handler as keyword
    arguments.  An unknown path raises 404; a known path with the wrong
    method raises 405 (listing the allowed methods).
    """

    def __init__(self) -> None:
        self._routes: List[Tuple[str, Tuple[str, ...], Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        segments = tuple(segment for segment in pattern.strip("/").split("/") if segment)
        self._routes.append((method.upper(), segments, handler))

    @staticmethod
    def _match_segments(
        pattern: Tuple[str, ...], segments: Tuple[str, ...]
    ) -> Optional[Dict[str, str]]:
        if len(pattern) != len(segments):
            return None
        params: Dict[str, str] = {}
        for expected, actual in zip(pattern, segments):
            if expected.startswith("{") and expected.endswith("}"):
                params[expected[1:-1]] = actual
            elif expected != actual:
                return None
        return params

    def match(self, method: str, path: str) -> Tuple[Handler, Dict[str, str]]:
        segments = tuple(segment for segment in path.strip("/").split("/") if segment)
        allowed: List[str] = []
        for route_method, pattern, handler in self._routes:
            params = self._match_segments(pattern, segments)
            if params is None:
                continue
            if route_method == method.upper():
                return handler, params
            allowed.append(route_method)
        if allowed:
            raise HttpError(
                405, f"method {method} not allowed for {path} (allowed: {', '.join(allowed)})"
            )
        raise HttpError(404, f"no such endpoint: {path}")


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Read one request off the connection, or ``None`` on clean EOF.

    Raises :class:`HttpError` for anything malformed or oversized — the
    caller answers it and closes — and lets connection-level exceptions
    (reset, incomplete read mid-request-line) propagate as disconnects.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise HttpError(400, "connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(413, "request headers too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError(413, "request headers too large")

    try:
        lines = head.decode("latin-1").split("\r\n")
        method, target, version = lines[0].split(" ", 2)
    except (UnicodeDecodeError, ValueError) as exc:
        raise HttpError(400, "malformed request line") from exc
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version!r}")

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, colon, value = line.partition(":")
        if not colon:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if headers.get("transfer-encoding"):
        raise HttpError(501, "chunked request bodies are not supported")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError as exc:
        raise HttpError(400, f"bad Content-Length {length_text!r}") from exc
    if length < 0:
        raise HttpError(400, f"bad Content-Length {length_text!r}")
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
    body = await reader.readexactly(length) if length else b""

    parts = urlsplit(target)
    return Request(
        method=method.upper(),
        path=unquote(parts.path) or "/",
        query={key: value for key, value in parse_qsl(parts.query)},
        headers=headers,
        body=body,
    )


def _head(status: int, content_type: str, extra: List[Tuple[str, str]]) -> bytes:
    reason = REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}", f"Content-Type: {content_type}"]
    lines += [f"{name}: {value}" for name, value in extra]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def write_response(
    writer: asyncio.StreamWriter, response: Response, keep_alive: bool
) -> None:
    extra = list(response.headers)
    extra.append(("Content-Length", str(len(response.body))))
    extra.append(("Connection", "keep-alive" if keep_alive else "close"))
    writer.write(_head(response.status, response.content_type, extra))
    writer.write(response.body)
    await writer.drain()


async def write_event_stream(writer: asyncio.StreamWriter, stream: EventStream) -> None:
    """Write a chunked streaming response until the iterator (or client) stops."""
    writer.write(
        _head(
            200,
            stream.content_type,
            [
                ("Cache-Control", "no-cache"),
                ("Transfer-Encoding", "chunked"),
                ("Connection", "close"),
            ],
        )
    )
    await writer.drain()
    try:
        async for event in stream.events:
            chunk = event.encode("utf-8")
            writer.write(f"{len(chunk):x}\r\n".encode("latin-1") + chunk + b"\r\n")
            await writer.drain()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
    finally:
        iterator_close = getattr(stream.events, "aclose", None)
        if iterator_close is not None:
            try:
                await iterator_close()
            except Exception:
                pass


def _error_response(status: int, message: str) -> Response:
    return json_response(error_payload(message, status), status=status)


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    router: Router,
    on_request: Optional[Callable[[Request], None]] = None,
) -> None:
    """The per-connection loop ``asyncio.start_server`` hands connections to.

    Plain responses keep the connection alive (HTTP/1.1 default) unless the
    client asked to close; event streams always end the connection.  A
    client that disconnects at any point simply ends the loop — nothing is
    logged, nothing propagates, and background work keeps running.
    """
    try:
        while True:
            try:
                request = await read_request(reader)
            except HttpError as exc:
                await write_response(
                    writer, _error_response(exc.status, str(exc)), keep_alive=False
                )
                break
            if request is None:
                break
            if on_request is not None:
                on_request(request)
            keep_alive = request.headers.get("connection", "keep-alive").lower() != "close"
            try:
                handler, params = router.match(request.method, request.path)
                result = await handler(request, **params)
            except HttpError as exc:
                result = _error_response(exc.status, str(exc))
            except SimulationError as exc:
                result = _error_response(500, f"simulation failed: {exc}")
            except (ProtocolError, ReproError) as exc:
                result = _error_response(400, str(exc))
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # a handler bug must not kill the server
                result = _error_response(500, f"internal error: {type(exc).__name__}: {exc}")
            if isinstance(result, EventStream):
                await write_event_stream(writer, result)
                break
            await write_response(writer, result, keep_alive=keep_alive)
            if not keep_alive:
                break
    except (ConnectionError, asyncio.IncompleteReadError, TimeoutError):
        pass  # client went away; their loss
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


__all__ = [
    "EventStream",
    "Handler",
    "HttpError",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "Request",
    "Response",
    "Router",
    "json_response",
    "read_request",
    "serve_connection",
    "write_event_stream",
    "write_response",
]
