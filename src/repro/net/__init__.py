"""The asyncio network backend: the protocol core over real sockets.

This package is the second interpreter of the sans-io protocol layer
(:mod:`repro.proto`).  The deterministic simulator interprets a core's
effects as virtual-time deliveries; here the *same effects from the same
core* become length-prefixed frames on TCP links, periodic anti-entropy
timers and fsynced snapshot files — which is the refactor's whole point:
every chaos scenario the simulator checks exercises exactly the code that
runs on the wire, and the sim↔net differential test pins the two
backends to byte-identical witnesses.

Layers, bottom up:

* :mod:`repro.net.framing` — 4-byte length-prefixed frames of canonical
  :mod:`repro.proto.wire` JSON;
* :mod:`repro.net.links` — the peer links, on ``asyncio.Protocol``;
* :mod:`repro.net.node` — :class:`~repro.net.node.ReplicaNode`, one
  replica process: effect interpreter, durable images;
* :mod:`repro.net.http` — the stdlib HTTP/1.1 object front-end (and the
  matching keep-alive client);
* :mod:`repro.net.harness` — :class:`~repro.net.harness.LocalCluster`,
  n nodes on localhost for tests and load runs;
* :mod:`repro.net.smoke` — the CI boot/load/crash/recover scenario.

Run a replica with ``python -m repro.net serve`` (see
:mod:`repro.net.__main__` for the flags).
"""

from repro.net.framing import FrameError, decode_frame, encode_frame, pop_frames
from repro.net.harness import LocalCluster
from repro.net.http import HttpClient, serve_http
from repro.net.node import NodeStoppedError, ReplicaNode

__all__ = [
    "FrameError",
    "decode_frame",
    "encode_frame",
    "pop_frames",
    "LocalCluster",
    "HttpClient",
    "serve_http",
    "ReplicaNode",
    "NodeStoppedError",
]
