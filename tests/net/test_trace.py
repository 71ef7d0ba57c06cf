"""Trace propagation across the networked backend.

The tentpole invariant: one client update issued at one HTTP front-end
yields a single causally-linked span tree — front-end parse, local apply,
peer broadcast, remote applies, visibility — under ONE trace id, across
every node of the cluster, mergeable into one Perfetto timeline.  Plus
the wire-level guarantees that make that safe to ship: untraced frames
are byte-identical to the pre-header format, and unknown header fields
never break a link (forward compatibility).
"""

from __future__ import annotations

import asyncio
import tempfile

import pytest

from repro.core.adt import Update
from repro.core.universal import UniversalReplica
from repro.net.framing import (
    decode_frame,
    encode_frame,
    split_headers,
    with_headers,
)
from repro.net.__main__ import make_factory
from repro.net.harness import LocalCluster
from repro.net.node import MSG
from repro.obs.wall import trace_ids
from repro.proto.effects import Broadcast
from repro.proto.wire import (
    decode_trace_headers,
    decode_ts_key,
    encode_trace_headers,
    encode_ts_key,
)
from repro.specs.set_spec import SetSpec


def run(coro):
    return asyncio.run(coro)


def make_cluster(factory=None, **kwargs):
    return LocalCluster(
        3,
        factory or (lambda pid, n: UniversalReplica(pid, n, SetSpec())),
        sync_interval=0.05,
        **kwargs,
    )


#: the shipped node's replicas: plain, and with stable-prefix GC (what
#: every ledger mesh node runs).
PLAIN = make_factory("set")
GC = make_factory("set", gc=True)


# -- the merged-timeline acceptance criterion -----------------------------------------


def test_one_update_links_spans_across_all_nodes(factory=PLAIN):
    async def body():
        cluster = make_cluster(factory, trace=True)
        await cluster.start()
        try:
            client = cluster.client(0)
            doc = await client.update("insert", 42)
            trace_id = doc["trace"]
            assert trace_id  # minted at the front-end, returned to the client
            await cluster.settle(timeout=10)
            await client.close()
        finally:
            await cluster.stop()
        merged = cluster.merged_trace()
        events = trace_ids(merged)[trace_id]
        by_name = {}
        for e in events:
            by_name.setdefault(e["name"], set()).add(e["pid"])
        # Front-end + local apply at the submitting node...
        assert by_name["http.update"] == {0}
        assert by_name["update.local_apply"] == {0}
        # ...remote applies at BOTH other nodes...
        assert by_name["update.remote_apply"] == {1, 2}
        # ...and a visibility event everywhere.
        assert by_name["update.visible"] == {0, 1, 2}

    run(body())


def test_one_update_links_spans_across_all_gc_nodes():
    test_one_update_links_spans_across_all_nodes(GC)


def test_client_supplied_trace_id_is_honoured():
    async def body():
        cluster = make_cluster(trace=True)
        await cluster.start()
        try:
            client = cluster.client(1)
            status, headers, payload = await client.request_full(
                "POST", "/update",
                {"name": "insert", "args": [7]},
                headers={"X-Trace-Id": "client-chose-this"},
            )
            assert status == 200
            assert headers["x-trace-id"] == "client-chose-this"
            await cluster.settle(timeout=10)
            await client.close()
        finally:
            await cluster.stop()
        groups = trace_ids(cluster.merged_trace())
        assert {e["pid"] for e in groups["client-chose-this"]} == {0, 1, 2}

    run(body())


def test_trace_survives_kill_and_restart():
    """An update broadcast while a node is down still reaches that node's
    span tree: the anti-entropy sync response carries the trace context,
    and the restarted incarnation records its own remote apply."""

    async def body():
        with tempfile.TemporaryDirectory() as data_dir:
            cluster = make_cluster(trace=True, data_dir=data_dir)
            await cluster.start()
            try:
                cluster.kill(2)  # victim is down before the update exists
                client = cluster.client(0)
                doc = await client.update("insert", 9)
                trace_id = doc["trace"]
                await client.close()
                await cluster.restart(2)
                await cluster.settle(timeout=10)
            finally:
                await cluster.stop()
            events = trace_ids(cluster.merged_trace())[trace_id]
            remote_pids = {
                e["pid"] for e in events if e["name"] == "update.remote_apply"
            }
            visible_pids = {
                e["pid"] for e in events if e["name"] == "update.visible"
            }
            # The restarted node joined the tree via the sync response.
            assert 2 in remote_pids and visible_pids == {0, 1, 2}
            # And a killed node records nothing after its crash: exactly
            # one visibility per node.
            visible = [e for e in events if e["name"] == "update.visible"]
            assert len(visible) == 3

    run(body())


def test_convergence_lag_recorded_per_node(factory=PLAIN):
    async def body():
        cluster = make_cluster(factory, trace=True)
        await cluster.start()
        try:
            client = cluster.client(0)
            await client.update("insert", 1)
            await cluster.settle(timeout=10)
            await client.close()
        finally:
            await cluster.stop()
        hist = cluster.registry.get("repro_net_convergence_lag_seconds")
        counts = {s.labels[0]: s.count for s in hist.series()}
        assert all(counts.get(str(pid), 0) >= 1 for pid in range(3))

    run(body())


def test_convergence_lag_recorded_per_gc_node():
    test_convergence_lag_recorded_per_node(GC)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("factory", [PLAIN, GC], ids=["plain", "gc"])
def test_only_a_traced_node_puts_trace_headers_on_update_frames(factory, trace):
    """A frame carries trace headers iff the node's tracer is enabled,
    whatever replica the node runs: an HTTP update still mints a trace id,
    but on an untraced node it never reaches the wire."""

    async def body():
        cluster = make_cluster(factory, trace=trace)
        await cluster.start()
        try:
            node = cluster.nodes[0]
            shipped = []
            original = node.links.ship
            node.links.ship = lambda dst, data: shipped.append(
                data
            ) or original(dst, data)
            client = cluster.client(0)
            doc = await client.update("insert", 3)
            assert doc["trace"]
            await client.close()
        finally:
            await cluster.stop()
        headers = []
        for data in shipped:
            frame, _ = decode_frame(data)
            payload, frame_headers = split_headers(frame[2:])
            if isinstance(payload[0], int):  # a stamped update, not a sync
                headers.append(frame_headers)
        assert headers  # the update was broadcast to both peers
        assert all(bool(h) == trace for h in headers)

    run(body())


# -- wire format ----------------------------------------------------------------------


def test_msg_frame_headers_round_trip():
    traces = {(3, 1): ("t1-3", 1754700000.25), (7, 0): ("t0-7", 1754700001.5)}
    frame = with_headers((MSG, 1, ["payload"]), encode_trace_headers(traces))
    value, rest = decode_frame(encode_frame(frame))
    assert rest == b""
    kind, src = value[0], value[1]
    payload, headers = split_headers(value[2:])
    assert (kind, src, payload) == (MSG, 1, ["payload"])
    assert decode_trace_headers(headers) == traces


def test_untraced_frames_are_byte_identical_to_legacy():
    legacy = encode_frame((MSG, 0, {"k": 1}))
    headerless = encode_frame(with_headers((MSG, 0, {"k": 1}), None))
    empty = encode_frame(with_headers((MSG, 0, {"k": 1}), {}))
    assert legacy == headerless == empty


def test_unknown_header_fields_are_ignored():
    headers = {
        "traces": {"5.2": ["t2-5", 100.0]},
        "baggage": {"zone": "us-east"},           # a future field
        "compression": "zstd",                    # another future field
    }
    assert decode_trace_headers(headers) == {(5, 2): ("t2-5", 100.0)}
    # Malformed entries inside traces are skipped, not fatal.
    headers = {"traces": {"not-a-ts": ["x", 1.0], "1.0": "not-a-pair",
                          "2.1": ["ok", 3.0]}}
    assert decode_trace_headers(headers) == {(2, 1): ("ok", 3.0)}
    # Entirely foreign headers decode to "no traces".
    assert decode_trace_headers({"whatever": 1}) == {}
    assert decode_trace_headers("junk") == {}


def test_nodes_ignore_unknown_header_fields_on_the_wire():
    """A newer node's extra header fields must not kill replication."""

    async def body():
        cluster = make_cluster()
        await cluster.start()
        try:
            node0, node1 = cluster.nodes[0], cluster.nodes[1]
            # Build the payload a real broadcast would carry...
            effects = node0.core.submit(Update("insert", (11,)))
            payload = next(
                e.payload for e in effects if isinstance(e, Broadcast)
            )
            # ...and ship it with headers from "the future".
            frame = (MSG, 0, payload,
                     {"traces": {"1.0": ["t0-1", 1.0]},
                      "hologram": {"v": 2}})
            reader, writer = await asyncio.open_connection(
                node1.host, node1.peer_port
            )
            writer.write(encode_frame(frame))
            await writer.drain()
            for _ in range(100):
                if 11 in node1.local_state():
                    break
                await asyncio.sleep(0.02)
            assert 11 in node1.local_state()
            writer.close()
        finally:
            await cluster.stop()

    run(body())


def test_ts_key_codec():
    assert encode_ts_key((12, 3)) == "12.3"
    assert decode_ts_key("12.3") == (12, 3)
    assert decode_ts_key(encode_ts_key((0, 0))) == (0, 0)


def test_sim_differential_unaffected_by_direct_submit():
    """Direct (non-HTTP) submits attach no headers — the property the
    sim↔net differential test's byte-identical frames rely on.  The seam
    is the one frame encode every broadcast and send goes through."""

    async def body():
        cluster = make_cluster(trace=True)
        await cluster.start()
        try:
            shipped = []
            node = cluster.nodes[0]
            original = node._frame
            node._frame = lambda payload, traces: shipped.append(
                traces
            ) or original(payload, traces)
            cluster.submit(0, Update("insert", (5,)))
            assert shipped and all(traces is None for traces in shipped)
        finally:
            await cluster.stop()

    run(body())
