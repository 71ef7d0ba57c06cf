"""The HTTP object front-end: routes, codecs, error shapes."""

from __future__ import annotations

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.universal import UniversalReplica
from repro.net.harness import LocalCluster
from repro.net.http import MAX_BODY, MAX_HEAD, PROM_CONTENT_TYPE, HttpProtocol
from repro.net.node import ReplicaNode
from repro.proto.wire import decode_value
from repro.specs.map_spec import MapSpec
from repro.specs.set_spec import SetSpec


def run(coro):
    return asyncio.run(coro)


def with_cluster(spec_factory, scenario):
    async def body():
        cluster = LocalCluster(
            3,
            lambda pid, n: UniversalReplica(pid, n, spec_factory()),
            sync_interval=0.05,
            http=True,
        )
        await cluster.start()
        clients = [cluster.client(pid) for pid in range(3)]
        try:
            await scenario(cluster, clients)
        finally:
            for c in clients:
                await c.close()
            await cluster.stop()

    run(body())


def test_update_then_query_through_http():
    async def scenario(cluster, clients):
        doc = await clients[0].update("insert", 5)
        assert doc["ok"] is True
        assert doc["timestamp"] == [1, 0]  # JSON has no tuples on this path
        assert await clients[0].query("contains", 5) is True
        assert await clients[0].query("read") == {5}

    with_cluster(SetSpec, scenario)


def test_updates_at_one_front_end_reach_the_others():
    async def scenario(cluster, clients):
        await clients[0].update("insert", 1)
        await cluster.settle(timeout=10)
        assert await clients[1].query("contains", 1) is True
        assert await clients[2].state() == {1}

    with_cluster(SetSpec, scenario)


def test_map_object_round_trips_structured_values():
    async def scenario(cluster, clients):
        await clients[0].update("put", "k", 7)
        assert await clients[0].query("get", "k") == 7
        assert await clients[0].query("keys") == frozenset({"k"})

    with_cluster(MapSpec, scenario)


def test_healthz_witness_and_metrics_routes():
    async def scenario(cluster, clients):
        status, doc = await clients[1].request("GET", "/healthz")
        assert (status, doc["ok"], doc["pid"], doc["n"]) == (200, True, 1, 3)
        # POST /update claims its own witness in the response, so probe
        # /witness after a query (queries leave theirs unclaimed)
        await clients[1].update("insert", 3)
        await clients[1].query("read")
        status, doc = await clients[1].request("GET", "/witness")
        witness = decode_value(doc["witness"])
        assert status == 200 and "timestamp" in witness
        status, doc = await clients[1].request("GET", "/metrics")
        assert status == 200 and isinstance(doc["metrics"], dict)

    with_cluster(SetSpec, scenario)


def test_unknown_route_and_bad_body():
    async def scenario(cluster, clients):
        status, _ = await clients[0].request("GET", "/nope")
        assert status == 404
        status, doc = await clients[0].request("POST", "/update", {"args": [1]})
        assert status == 400 and "error" in doc
        status, _ = await clients[0].request("POST", "/update",
                                             {"name": "no_such_op", "args": []})
        assert status == 400

    with_cluster(SetSpec, scenario)


def test_zero_arg_query_shorthand():
    async def scenario(cluster, clients):
        await clients[0].update("insert", 2)
        status, doc = await clients[0].request("GET", "/query/read")
        assert status == 200
        assert doc["output"] == {"@": "frozenset", "items": [2]}

    with_cluster(SetSpec, scenario)


def test_metrics_prometheus_text_via_accept_header():
    async def scenario(cluster, clients):
        await clients[0].update("insert", 1)
        status, headers, body = await clients[0].request_full(
            "GET", "/metrics", headers={"Accept": "text/plain"}
        )
        assert status == 200
        assert headers["content-type"] == PROM_CONTENT_TYPE
        text = body.decode("utf-8")
        assert "# TYPE repro_net_frames_sent_total counter" in text
        assert 'repro_net_convergence_lag_seconds_bucket{pid="0",le=' in text

    with_cluster(SetSpec, scenario)


def test_metrics_prometheus_text_via_query_param():
    async def scenario(cluster, clients):
        status, headers, body = await clients[0].request_full(
            "GET", "/metrics?format=text"
        )
        assert status == 200
        assert headers["content-type"] == PROM_CONTENT_TYPE
        assert b"# TYPE" in body
        # Without negotiation the JSON document is unchanged.
        status, headers, body = await clients[0].request_full("GET", "/metrics")
        assert status == 200
        assert headers["content-type"] == "application/json"
        assert "metrics" in json.loads(body.decode("utf-8"))

    with_cluster(SetSpec, scenario)


def test_metrics_text_escapes_label_values():
    async def scenario(cluster, clients):
        gauge = cluster.registry.gauge(
            "repro_test_escaping", "label escaping probe", label_names=("path",)
        )
        gauge.labels(path='C:\\tmp\n"quoted"').set(1)
        _, _, body = await clients[0].request_full(
            "GET", "/metrics", headers={"Accept": "text/plain"}
        )
        line = next(
            ln for ln in body.decode("utf-8").splitlines()
            if ln.startswith("repro_test_escaping{")
        )
        assert line == 'repro_test_escaping{path="C:\\\\tmp\\n\\"quoted\\""} 1'

    with_cluster(SetSpec, scenario)


def test_healthz_surfaces_task_errors():
    async def scenario(cluster, clients):
        status, doc = await clients[2].request("GET", "/healthz")
        assert status == 200
        assert doc["task_errors"] == {"count": 0, "last": None}
        # A crashed background task shows up in the health document.
        node = cluster.nodes[2]
        node.task_errors.append(RuntimeError("sync loop died"))
        status, doc = await clients[2].request("GET", "/healthz")
        assert doc["ok"] is True  # health reports, it does not flap
        assert doc["task_errors"]["count"] == 1
        assert "sync loop died" in doc["task_errors"]["last"]

    with_cluster(SetSpec, scenario)


def test_update_returns_trace_id_header():
    async def scenario(cluster, clients):
        status, headers, body = await clients[0].request_full(
            "POST", "/update", {"name": "insert", "args": [4]}
        )
        assert status == 200
        doc = json.loads(body.decode("utf-8"))
        assert doc["trace"] == headers["x-trace-id"]
        # Distinct updates get distinct minted ids.
        _, headers2, _ = await clients[0].request_full(
            "POST", "/update", {"name": "insert", "args": [5]}
        )
        assert headers2["x-trace-id"] != headers["x-trace-id"]

    with_cluster(SetSpec, scenario)


# -- malformed input, chunking, one write per message ---------------------------


async def _raw_exchange(port: int, data: bytes) -> bytes:
    """Send ``data`` on a fresh connection; everything read until close."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(data)
    try:
        return await asyncio.wait_for(reader.read(), 5.0)
    finally:
        writer.close()


@pytest.mark.parametrize("head, status", [
    (b"POST /update HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    (b"POST /update HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
    (b"GARBAGE\r\n\r\n", 400),
    (b"POST /update HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY + 1), 413),
    (b"GET /" + b"x" * (MAX_HEAD + 1), 400),
], ids=["length-not-a-number", "negative-length", "no-path", "body-too-large",
        "head-too-large"])
def test_malformed_input_gets_an_answer_then_a_close(head, status):
    async def scenario(cluster, clients):
        reply = await _raw_exchange(cluster.nodes[0].http_port, head)
        assert reply.startswith(b"HTTP/1.1 %d " % status)
        assert b"Connection: close" in reply
        _, _, body = reply.partition(b"\r\n\r\n")
        assert "error" in json.loads(body)
        assert await clients[0].query("read") == frozenset()  # still serving

    with_cluster(SetSpec, scenario)


class _Transport:
    """Just enough of an asyncio transport to drive the protocol by hand."""

    def __init__(self) -> None:
        self.writes: list[bytes] = []
        self.closed = False

    def write(self, data: bytes) -> None:
        self.writes.append(data)

    def close(self) -> None:
        self.closed = True

    def is_reading(self) -> bool:
        return not self.closed


def _request(method: str, path: str, doc=None, close: bool = False) -> bytes:
    body = b"" if doc is None else json.dumps(doc).encode()
    return b"%s %s HTTP/1.1\r\nContent-Length: %d\r\n%s\r\n%s" % (
        method.encode(), path.encode(), len(body),
        b"Connection: close\r\n" if close else b"", body,
    )


_REQUESTS = st.one_of(
    st.integers(0, 5).map(
        lambda v: _request("POST", "/update", {"name": "insert", "args": [v]})),
    st.integers(0, 5).map(
        lambda v: _request("POST", "/query", {"name": "contains", "args": [v]})),
    st.sampled_from([
        _request("GET", "/query/read"), _request("GET", "/healthz"),
        _request("GET", "/witness"), _request("GET", "/nope"),
        _request("POST", "/update", {"args": []}),
        _request("GET", "/state", close=True),
    ]),
)


def _serve(stream: bytes, cuts: list[int]) -> _Transport:
    node = ReplicaNode(0, 1, lambda pid, n: UniversalReplica(pid, n, SetSpec()))
    protocol, transport = HttpProtocol(node), _Transport()
    protocol.connection_made(transport)
    for lo, hi in zip([0, *cuts], [*cuts, len(stream)]):
        protocol.data_received(stream[lo:hi])
    return transport


@settings(max_examples=60, deadline=None)
@given(requests=st.lists(_REQUESTS, min_size=1, max_size=8), data=st.data())
def test_any_cut_of_a_request_stream_gets_the_same_response_bytes(requests, data):
    """Pipelined in one read or cut anywhere, the same requests get the
    same answers, byte for byte, one per request up to a close."""
    stream = b"".join(requests)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=12)))
    whole, cut = _serve(stream, []), _serve(stream, cuts)
    assert whole.writes == cut.writes and whole.closed == cut.closed
    answered = next(
        (i + 1 for i, r in enumerate(requests) if b"Connection: close" in r),
        len(requests),
    )
    assert len(whole.writes) == answered  # one write per response
    assert all(w.startswith(b"HTTP/1.1 ") for w in whole.writes)


def test_the_client_sends_a_request_in_one_write():
    async def scenario(cluster, clients):
        client = clients[0]
        await client.request("GET", "/healthz")  # connect
        writes = []
        real = client._writer.write
        client._writer.write = lambda data: (writes.append(data), real(data))[1]
        await client.update("insert", 1)
        assert len(writes) == 1 and writes[0].endswith(b'"args": [1]}')

    with_cluster(SetSpec, scenario)
