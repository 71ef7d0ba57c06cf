"""CLI for the asyncio backend: ``python -m repro.net <command>``.

``serve`` runs one replica process::

    python -m repro.net serve --pid 0 --object set \\
        --peers 127.0.0.1:7000,127.0.0.1:7001,127.0.0.1:7002 \\
        --http-port 8000 --data-dir /var/lib/repro

The ``--peers`` list doubles as the membership: its length is ``n`` and
the ``--pid``-th entry is this process's own peer address (it binds that
port).  Start one process per entry and the mesh assembles itself.

``smoke`` runs the self-contained crash/recovery scenario used by CI
(see :mod:`repro.net.smoke`).
"""

from __future__ import annotations

import argparse
import asyncio
import sys

from repro.core.checkpoint import GarbageCollectedReplica
from repro.core.universal import UniversalReplica
from repro.net.node import ReplicaNode
from repro.specs import CounterSpec, GSetSpec, MapSpec, SetSpec

OBJECTS = {
    "set": SetSpec,
    "counter": CounterSpec,
    "map": MapSpec,
    "gset": GSetSpec,
}


def make_factory(object_name: str, *, gc: bool = False):
    """A ``(pid, n) -> replica`` factory for a named UQ-ADT object.

    Either way a query folds only what arrived since the last one
    (Section VII-C): the arrival-order fold on an object whose updates
    commute, the keyed replay on one whose updates each overwrite a slot
    (every shipped object is one or the other); ``gc`` adds stable-prefix
    collection.  Same log, digest and durable image as Algorithm 1
    verbatim, which the sim and the paper benches build by name.
    """
    spec_cls = OBJECTS.get(object_name)
    if spec_cls is None:
        raise ValueError(
            f"unknown object {object_name!r} (choose from {sorted(OBJECTS)})"
        )
    spec = spec_cls()
    replay = "fold" if spec.commutative_updates else "keyed"
    replica_cls = GarbageCollectedReplica if gc else UniversalReplica
    return lambda pid, n: replica_cls(pid, n, spec, replay=replay)


def _parse_peers(text: str) -> list[tuple[str, int]]:
    peers = []
    for entry in text.split(","):
        host, _, port = entry.strip().rpartition(":")
        peers.append((host or "127.0.0.1", int(port)))
    return peers


async def _serve(args: argparse.Namespace) -> None:
    peers = _parse_peers(args.peers)
    n = len(peers)
    if not 0 <= args.pid < n:
        raise SystemExit(f"--pid {args.pid} out of range for {n} peers")
    if args.json_logs:
        from repro.obs.log import configure

        configure()
    tracer = None
    if args.trace_out:
        from repro.obs.wall import WallTracer

        tracer = WallTracer()
    host, peer_port = peers[args.pid]
    node = ReplicaNode(
        args.pid, n, make_factory(args.object, gc=args.gc),
        host=host,
        data_dir=args.data_dir,
        sync_interval=args.sync_interval,
        **({"tracer": tracer} if tracer is not None else {}),
    )
    await node.listen(peer_port=peer_port, http_port=args.http_port)
    node.set_peers({pid: addr for pid, addr in enumerate(peers)})
    await node.start()
    print(
        f"replica {args.pid}/{n} ({args.object}"
        f"{', gc' if args.gc else ''}): peers on {host}:{node.peer_port}, "
        f"http on {host}:{node.http_port}",
        flush=True,
    )
    try:
        await asyncio.Event().wait()  # serve until interrupted
    finally:
        await node.stop()
        if tracer is not None:
            import json

            from repro.obs.wall import wall_chrome_trace

            # Shutdown-time write: the node is already stopped.
            with open(args.trace_out, "w") as fh:  # uqlint: disable=ASY304 -- shutdown write
                json.dump(
                    wall_chrome_trace(
                        tracer, trace_name=f"repro net replica {args.pid}"
                    ),
                    fh,
                )
            print(f"trace written to {args.trace_out}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.net",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run one replica process")
    serve.add_argument("--pid", type=int, required=True)
    serve.add_argument("--peers", required=True,
                       help="comma-separated host:port peer list (pid order)")
    serve.add_argument("--object", default="set", choices=sorted(OBJECTS))
    serve.add_argument("--gc", action="store_true",
                       help="use the garbage-collected replica")
    serve.add_argument("--http-port", type=int, default=0,
                       help="HTTP front-end port (0 = ephemeral)")
    serve.add_argument("--data-dir", default=None,
                       help="directory for the durable replica image")
    serve.add_argument("--sync-interval", type=float, default=0.25)
    serve.add_argument("--json-logs", action="store_true",
                       help="structured JSON log lines on stderr")
    serve.add_argument("--trace-out", default=None,
                       help="record a wall-clock trace; write the Perfetto "
                            "document here on shutdown (merge per-node files "
                            "with repro.obs.wall.merge_chrome_traces)")

    sub.add_parser("smoke", help="run the CI crash/recovery scenario",
                   add_help=False)

    args, rest = parser.parse_known_args(argv)
    if args.command == "smoke":
        from repro.net.smoke import main as smoke_main

        return smoke_main(rest)
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
