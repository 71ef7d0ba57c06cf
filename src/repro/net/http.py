"""A minimal HTTP/1.1 front-end for a :class:`~repro.net.node.ReplicaNode`.

One hand-rolled :class:`asyncio.Protocol` (the toolchain ships no
third-party HTTP server) supporting exactly what the object API needs:
request-line + headers, ``Content-Length`` bodies, keep-alive and
pipelined requests.  ``data_received`` answers every complete request in
the buffer with one ``transport.write``; malformed input gets a 400 (or
413) and a close; ``pause_writing`` pauses reading.  JSON in, JSON out;
values round-trip through the :mod:`repro.proto.wire` codec so query
outputs like frozensets survive.

Routes::

    GET  /healthz        -> {"ok": true, "pid": 0, "n": 3,
                             "task_errors": {"count": 0, "last": null},
                             "storage": {"backend": "journal",
                                         "corrupt_image": null, ...},
                             "gc": {"floor": 7, "heard": [9, 8, 7],
                                    "epochs": {"1": "complete", "2": "down"},
                                    "floor_lag": 3, "pinned_by": 2}}
    GET  /state          -> {"state": <encoded local state>}
    GET  /witness        -> {"witness": {...}}   (timestamp, visibility, of the
                            last local op whose witness was not already claimed;
                            POST /update claims its own in the response; a
                            query's visibility set is an O(1) view, walked
                            only when this claim encodes it)
    GET  /metrics        -> {"metrics": {...}}   (registry.flat()); with
                            ``Accept: text/plain`` or ``?format=text`` the
                            Prometheus text exposition instead (scrapable)
    POST /update         <- {"name": "insert", "args": [1]}
    POST /query          <- {"name": "contains", "args": [1]}
    GET  /query/<name>   -> shorthand for a zero-argument query

Updates complete locally (wait-free) — a 200 means the update was applied
and broadcast, not that any peer acknowledged it.  That *is* the paper's
contract: update consistency trades immediate agreement for wait-free
termination, and convergence is the network's job.

The front-end is also where traces begin: every ``POST /update`` mints a
:class:`~repro.obs.wall.TraceContext` (honouring a client-supplied
``X-Trace-Id``) and stamps the submit wall time — the zero point the
node measures its convergence lag from.  The trace id comes back in
both the JSON response (``"trace"``) and an ``X-Trace-Id`` response
header.  The context reaches the peers, and their convergence lags,
only from a node whose tracer is enabled: a frame carries trace headers
iff it does (:meth:`~repro.net.node.ReplicaNode.submit`).
"""

from __future__ import annotations

import asyncio
import functools
import json
import re
from typing import TYPE_CHECKING, Any

from repro.core.adt import Update
from repro.obs.wall import TraceContext, wall_now
from repro.proto.wire import decode_value, encode_value

if TYPE_CHECKING:
    from repro.net.node import ReplicaNode

#: request bodies beyond this are rejected (absurd for an object op).
MAX_BODY = 1 * 1024 * 1024
#: a request head (line + headers) still unterminated past this is junk.
MAX_HEAD = 64 * 1024
_HEAD_END = re.compile(rb"\r?\n\r?\n")

#: the Prometheus text-exposition content type (format v0.0.4).
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            500: "Internal Server Error", 503: "Service Unavailable"}


async def serve_http(node: "ReplicaNode", host: str, port: int):
    """Start the front-end; returns the asyncio server."""
    return await asyncio.get_running_loop().create_server(lambda: HttpProtocol(node), host, port)


class HttpProtocol(asyncio.Protocol):
    """One front-end connection, parsed from one receive buffer."""

    def __init__(self, node: "ReplicaNode") -> None:
        self.node, self.transport, self._buf = node, None, bytearray()

    def connection_made(self, transport: Any) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        self._buf += data
        self._answer()

    def pause_writing(self) -> None:
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.transport.resume_reading()
        self._answer()

    def _answer(self) -> None:
        """Answer the buffered requests in order while reading is on."""
        buf = self._buf
        while self.transport.is_reading():
            head = _HEAD_END.search(buf)
            if head is None:
                if len(buf) > MAX_HEAD:
                    self._fail(400, "request head too large")
                return
            parts, headers = _parse_head(buf[:head.start()])
            length = headers.get("content-length", "0") or "0"
            if len(parts) < 2 or not length.isdecimal():
                return self._fail(400, "malformed request head")
            if int(length) > MAX_BODY:
                return self._fail(413, f"body over {MAX_BODY} bytes")
            end = head.end() + int(length)
            if len(buf) < end:
                return
            body = bytes(buf[head.end():end])
            del buf[:end]
            keep = headers.get("connection", "keep-alive").lower() != "close"
            self._send(_route(self.node, parts[0].upper(), parts[1], body, headers), keep)

    def _fail(self, status: int, message: str) -> None:
        doc = json.dumps({"error": message}).encode()
        self._send((status, doc, "application/json", {}), False)

    def _send(self, response: tuple, keep: bool) -> None:
        """One response — head and body — in one write."""
        status, payload, content_type, extra = response
        extra_lines = "".join(f"{name}: {value}\r\n" for name, value in extra.items())
        self.transport.write(b"%s%d\r\n%sConnection: %s\r\n\r\n%s" % (
            _status_head(status, content_type), len(payload),
            extra_lines.encode("latin-1"), b"keep-alive" if keep else b"close", payload,
        ))
        if not keep:
            self.transport.close()


def _parse_head(head: bytes | bytearray) -> tuple[list[str], dict[str, str]]:
    """A message head's first line, split, and its headers by lower-cased name."""
    first, *lines = head.decode("latin-1").rstrip().split("\n")
    fields = (line.partition(":") for line in lines)
    return first.split(), {name.strip().lower(): value.strip() for name, _, value in fields}


@functools.cache
def _status_head(status: int, content_type: str) -> bytes:
    """A response's pre-encoded first bytes, up to the length's value."""
    return b"HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: " % (
        status, _REASONS[status].encode(), content_type.encode())


def _wants_prometheus_text(headers: dict[str, str], query: str) -> bool:
    """Content negotiation for ``/metrics``: explicit ``?format=text`` or
    an ``Accept`` header asking for ``text/plain`` (what Prometheus's
    scraper sends) selects the text exposition."""
    if "format=text" in query.split("&"):
        return True
    return "text/plain" in headers.get("accept", "")


def _route(
    node: "ReplicaNode",
    method: str,
    path: str,
    body: bytes,
    headers: dict[str, str] | None = None,
):
    """Dispatch one request.

    Returns ``(status, body_bytes, content_type, extra_headers)`` —
    almost every route speaks JSON; the Prometheus text exposition of
    ``/metrics`` is the one non-JSON body.
    """
    headers = headers or {}
    path, _, query = path.partition("?")
    if method == "GET" and path == "/metrics" and _wants_prometheus_text(headers, query):
        text = node.registry.to_prometheus_text()
        return 200, text.encode("utf-8"), PROM_CONTENT_TYPE, {}
    status, doc, extra = _route_json(node, method, path, body, headers)
    return status, json.dumps(doc).encode("utf-8"), "application/json", extra


def _route_json(
    node: "ReplicaNode",
    method: str,
    path: str,
    body: bytes,
    headers: dict[str, str],
):
    """The JSON routes; returns ``(status, json_document, extra_headers)``."""
    from repro.net.node import NodeStoppedError

    try:
        if method == "GET":
            if path == "/healthz":
                errors = node.task_errors
                return 200, {
                    "ok": True, "pid": node.pid, "n": node.n,
                    "task_errors": {
                        "count": len(errors),
                        "last": repr(errors[-1]) if errors else None,
                    },
                    # Durable-storage health: journal stats plus the last
                    # corrupt-image error (how a quarantined boot shows up
                    # to an operator without grepping logs).
                    "storage": node.storage_info(),
                    # GC progress: floor, heard, link epochs, and which
                    # peer pins the floor (null on a non-GC replica).
                    "gc": node.gc_info(),
                }, {}
            if path == "/state":
                return 200, {"state": encode_value(node.local_state())}, {}
            if path == "/witness":
                return 200, {"witness": encode_value(node.witness_meta())}, {}
            if path == "/metrics":
                return 200, {"metrics": node.registry.flat()}, {}
            if path.startswith("/query/"):
                name = path[len("/query/"):]
                output = node.query(name)
                return 200, {"output": encode_value(output)}, {}
            return 404, {"error": f"no route {path}"}, {}
        if method == "POST":
            if path not in ("/update", "/query"):
                return 404, {"error": f"no route {path}"}, {}
            try:
                doc = json.loads(body.decode("utf-8") or "{}")
                name = doc["name"]
                args = tuple(decode_value(doc.get("args", [])))
            except (ValueError, KeyError, TypeError) as exc:
                return 400, {"error": f"bad request body: {exc}"}, {}
            if path == "/update":
                update = Update(name, args)
                spec = getattr(node.core.replica, "spec", None)
                if spec is not None:
                    # Fail fast on junk at the edge by probing a throwaway
                    # state; the replica itself never validates (wait-free,
                    # lazy replay), so a typo'd name would otherwise poison
                    # the log and break every later query.
                    spec.apply(spec.initial_state(), update)
                trace_id = headers.get("x-trace-id") or node.mint_trace_id()
                ctx = TraceContext(trace_id, wall_now())
                meta = node.submit(update, ctx=ctx)
                if node.tracer.enabled:
                    node.tracer.span(
                        "http.update", ctx.t0, wall_now(), pid=node.pid,
                        attrs={"trace": trace_id, "update": name},
                    )
                ts = meta.get("timestamp")
                return 200, {
                    "ok": True,
                    "timestamp": None if ts is None else list(ts),
                    "trace": trace_id,
                }, {"X-Trace-Id": trace_id}
            output = node.query(name, args)
            return 200, {"output": encode_value(output)}, {}
        return 405, {"error": f"method {method} not allowed"}, {}
    except NodeStoppedError as exc:
        return 503, {"error": str(exc)}, {}
    except Exception as exc:  # spec rejections (unknown op, bad args) land here
        return 400, {"error": f"{type(exc).__name__}: {exc}"}, {}


# -- a matching client (smoke tests, load harness) ------------------------------


class HttpClient:
    """One keep-alive connection speaking the front-end's dialect."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _ensure(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def request_full(
        self,
        method: str,
        path: str,
        doc: Any | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One request/response; returns status, response headers (names
        lower-cased) and the raw body bytes."""
        await self._ensure()
        assert self._reader is not None and self._writer is not None
        body = b"" if doc is None else json.dumps(doc).encode("utf-8")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        self._writer.write(
            b"%s %s HTTP/1.1\r\nHost: %s\r\nContent-Length: %d\r\n"
            b"Content-Type: application/json\r\n%s\r\n%s"
            % (method.encode(), path.encode(), self.host.encode(), len(body),
               extra.encode("latin-1"), body)
        )
        await self._writer.drain()
        try:
            head = await self._reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            raise ConnectionError("server closed the connection") from exc
        first, response_headers = _parse_head(head)
        length = int(response_headers.get("content-length", "0") or "0")
        payload = await self._reader.readexactly(length) if length else b"{}"
        return int(first[1]), response_headers, payload

    async def request(
        self, method: str, path: str, doc: Any | None = None
    ) -> tuple[int, Any]:
        """One request/response on the persistent connection."""
        status, _, payload = await self.request_full(method, path, doc)
        return status, json.loads(payload.decode("utf-8"))

    async def update(self, name: str, *args: Any) -> Any:
        status, doc = await self.request(
            "POST", "/update", {"name": name, "args": encode_value(list(args))}
        )
        if status != 200:
            raise RuntimeError(f"update {name} failed ({status}): {doc}")
        return doc

    async def query(self, name: str, *args: Any) -> Any:
        status, doc = await self.request(
            "POST", "/query", {"name": name, "args": encode_value(list(args))}
        )
        if status != 200:
            raise RuntimeError(f"query {name} failed ({status}): {doc}")
        return decode_value(doc["output"])

    async def state(self) -> Any:
        status, doc = await self.request("GET", "/state")
        if status != 200:
            raise RuntimeError(f"state failed ({status}): {doc}")
        return decode_value(doc["state"])

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None
            self._reader = None
