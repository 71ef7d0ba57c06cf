"""One replica process over real sockets: the asyncio effect interpreter.

:class:`ReplicaNode` is the network twin of the simulator's
:class:`~repro.sim.cluster.Cluster` — the same
:class:`~repro.proto.core.ProtocolCore` drives the same replica
algorithms, and the node's only job is to interpret the returned effects:

* :class:`~repro.proto.effects.Broadcast` / ``Send`` — frame the payload
  once (:mod:`repro.net.framing`) and write it on the peer links
  (:mod:`repro.net.links`).  Link loss is tolerated, not hidden: a frame
  to a dead peer is dropped, exactly the asynchronous-network model the
  paper assumes, and the periodic anti-entropy tick repairs the
  divergence and re-dials the peer — one dial per tick, not per frame.
* :class:`~repro.proto.effects.Persist` — mark the durable image dirty; a
  background task appends the changed cells to the node's journal
  (:class:`~repro.storage.engine.JournalStore` — write-ahead clock cell
  first, then new log entries, each frame CRC'd and digest-chained) on a
  short throttle.  :meth:`kill` skips the final flush — a crash loses the
  unflushed tail, which is precisely the ``fsync_point`` recovery model,
  and the journal's torn-tail truncation makes it physically true.  The
  journal is the only durable image read at boot; a corrupt one raises a
  typed :class:`~repro.storage.journal.CorruptImageError` — or, with
  ``on_corrupt="quarantine"``, sets the file aside and rejoins empty via
  anti-entropy, surfacing the damage on ``/healthz``.
* :class:`~repro.proto.effects.Timer` — schedule a one-shot follow-up
  :meth:`~repro.proto.core.ProtocolCore.sync_tick`.

The periodic tick sends an anti-entropy request and a heartbeat (the
liveness beacon a garbage-collected replica's floor moves on), and the
peer links report link epochs to the core: a peer's ``HELLO`` is
``LinkEstablished``, losing the connection it came on is ``LinkLost``
(DESIGN.md §11).

Everything runs on one event loop and every core call is synchronous, so
no lock ever guards replica state — wait-freedom by construction, same as
the sim.  :meth:`submit` and :meth:`query` never await: a burst of
operations issued in one event-loop turn interleaves with no delivery,
which is what makes the sim↔net differential test's Lamport stamps
deterministic.

Observability (all optional, all off the hot path when disabled): a
:class:`~repro.obs.wall.WallTracer` records each traced update's local
and remote apply spans; trace contexts propagate as MSG-frame headers
(:func:`repro.net.framing.with_headers`) so one client update's spans
link across every node; convergence lag, peer RTT, outbox depth and
dirty-flush latency land in the shared metrics registry.  An untraced
node emits byte-identical frames to the pre-observability wire format.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Any, Callable, Hashable

from repro.core.sync import SyncProtocolError
from repro.net.framing import encode_frame, split_headers, with_headers
from repro.net.links import HELLO, PeerLinks, PeerProtocol
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer
from repro.obs.wall import TraceContext, wall_now
from repro.proto.core import ProtocolCore
from repro.proto.effects import (
    Broadcast,
    Effect,
    Persist,
    QueryAnswered,
    Send,
    Timer,
)
from repro.proto.wire import (
    decode_trace_headers,
    encode_trace_headers,
    encode_ts_key,
)
from repro.storage import CorruptImageError, JournalStore, fsync_dir

_LOG = get_logger("repro.net.node")

#: frame kinds on the peer wire (the body of every peer frame is a tuple).
MSG = "msg"
#: RTT probes, piggybacked on the anti-entropy cadence.  A PING travels
#: on the sender's outbound link; the PONG answers over the *receiver's*
#: outbound link (outbound connections are write-only), so the measured
#: RTT covers the same two links an update-and-its-sync-response pair
#: crosses.  Nodes that predate these kinds silently ignore them.
PING = "ping"
PONG = "pong"

#: Convergence-lag histogram buckets: from sub-millisecond same-burst
#: applies up to multi-second partition repairs (seconds).
CONVERGENCE_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)
#: Bound on the per-node recent-trace index (timestamp -> trace context).
#: Oldest entries fall off first; an evicted trace merely stops being
#: re-announced on sync responses — already-recorded spans are untouched.
TRACE_RECENT_CAP = 512
#: How many of the most recent traces ride each directed send.  Directed
#: sends are the anti-entropy/state-transfer path, which is how a trace
#: context reaches a node that was down when the update was broadcast.
TRACE_SEND_CAP = 64

#: The effect contract (checked by uqlint EFX401): this backend dispatches
#: on every member of the closed ``repro.proto.effects.Effect`` union.
HANDLED_EFFECTS = (Broadcast, Send, Timer, Persist)
#: ``QueryAnswered`` never reaches the interpreter loop with work to do:
#: queries are answered synchronously inside :meth:`ReplicaNode.query`
#: (the output is returned before the effects are applied).
IGNORED_EFFECTS = (QueryAnswered,)


class NodeStoppedError(RuntimeError):
    """An operation was invoked on a stopped (killed) node."""


class ReplicaNode:
    """One process of a replicated object, reachable over TCP.

    Lifecycle::

        node = ReplicaNode(pid, n, factory, data_dir=...)
        await node.listen()            # bind peer + HTTP sockets
        node.set_peers({...})          # pid -> (host, peer_port)
        await node.start()             # connect, recover from disk, tick

    ``submit``/``query`` are the application surface (the HTTP front-end
    in :mod:`repro.net.http` calls them); both are synchronous and
    wait-free.
    """

    def __init__(
        self,
        pid: int,
        n: int,
        replica_factory: Callable[[int, int], Any],
        *,
        host: str = "127.0.0.1",
        data_dir: str | None = None,
        sync_interval: float = 0.25,
        flush_interval: float = 0.05,
        on_corrupt: str = "raise",
        registry: MetricsRegistry | None = None,
        tracer: NullTracer = NULL_TRACER,
    ) -> None:
        if on_corrupt not in ("raise", "quarantine"):
            raise ValueError(
                f"on_corrupt must be 'raise' or 'quarantine', got {on_corrupt!r}"
            )
        self.pid = pid
        self.n = n
        self.host = host
        self.registry = registry if registry is not None else MetricsRegistry()
        self.core = ProtocolCore(pid, n, replica_factory, registry=self.registry)
        self.data_dir = data_dir
        self.sync_interval = sync_interval
        self.flush_interval = flush_interval
        self.tracer = tracer
        self.peer_port: int | None = None
        self.http_port: int | None = None
        self._servers: list[asyncio.base_events.Server] = []
        self._tasks: set[asyncio.Task] = set()
        #: exceptions raised by background tasks (sync loop, flusher,
        #: one-shot ticks).  asyncio drops these on the floor unless a
        #: done-callback collects them; a crashed sync loop that nobody
        #: notices is a replica that silently stops converging.
        self.task_errors: list[BaseException] = []
        #: durable-image policy and state: ``on_corrupt`` picks between
        #: failing the boot (``"raise"``, the default — operators decide)
        #: and quarantining the damaged file to boot empty and rejoin via
        #: anti-entropy; either way the error lands on
        #: :attr:`corrupt_image` and ``/healthz``.
        self.on_corrupt = on_corrupt
        self.corrupt_image: CorruptImageError | None = None
        self._store: JournalStore | None = None
        self._dirty = False
        self._dirty_since: float | None = None
        self._stopped = False
        #: whether start() has restored the replica: a HELLO before that
        #: opens no epoch (the first sync round after boot completes it)
        self._booted = False
        self._log = _LOG.bind(pid=pid)
        #: protocol timestamp -> (trace_id, submit wall time), insertion
        #: ordered and bounded (:data:`TRACE_RECENT_CAP`).  Doubles as the
        #: "visibility already recorded here" set and as the payload of
        #: sync-response trace headers.
        self._trace_recent: dict[tuple[int, int], tuple[str, float]] = {}
        #: trace headers to attach to the frames the *current* effect
        #: batch produces (set around traced submit/deliver calls only).
        self._out_traces: dict[tuple[int, int], tuple[str, float]] | None = None
        self._ping_seq = 0
        self._ping_pending: dict[int, tuple[int, float]] = {}
        self._trace_seq = 0
        m = self.registry
        self.links = PeerLinks(pid, m, self._on_frame, self._spawn, self._link_lost)
        # No peer has dialled us yet: every link epoch starts down, and a
        # peer's HELLO opens one (DESIGN.md §11).
        for peer in range(n):
            if peer != pid:
                self.core.link_lost(peer)
        self._received = m.counter(
            "repro_net_frames_received_total", help="peer frames delivered",
        ).labels()
        self._flushes = m.counter(
            "repro_net_snapshot_flushes_total", help="durable images written",
        ).labels()
        self._journal_records = m.counter(
            "repro_net_journal_records_total",
            help="records appended to the durable journal",
        ).labels()
        self._journal_compactions = m.counter(
            "repro_net_journal_compactions_total",
            help="journal generations rewritten (GC-floor compaction)",
        ).labels()
        self._task_errors = m.counter(
            "repro_net_task_errors_total",
            help="background tasks that died with a non-cancellation error",
        ).labels()
        self._conv_lag = m.histogram(
            "repro_net_convergence_lag_seconds",
            help="wall time from front-end submit to first local visibility",
            label_names=("pid",),
            buckets=CONVERGENCE_BUCKETS,
        ).labels(pid=str(pid))
        self._rtt_gauge = m.gauge(
            "repro_net_peer_rtt_seconds",
            help="last measured peer-link round-trip time (sync-tick pings)",
            label_names=("pid", "peer"),
        )
        self._outbox_gauge = m.gauge(
            "repro_net_outbox_depth_bytes",
            help="bytes queued on outbound peer links (transport write buffers)",
            label_names=("pid",),
        ).labels(pid=str(pid))
        self._flush_latency = m.histogram(
            "repro_net_dirty_flush_latency_seconds",
            help="time from first unflushed Persist to the snapshot hitting disk",
            label_names=("pid",),
            buckets=CONVERGENCE_BUCKETS,
        ).labels(pid=str(pid))
        self._floor_lag = m.gauge(
            "repro_replica_gc_floor_lag",
            help="Lamport clock minus min(heard): how far the GC floor trails "
            "(the peer pinning it is on /healthz)",
            label_names=("pid",),
        ).labels(pid=str(pid))

    # -- lifecycle -----------------------------------------------------------------

    @property
    def journal_path(self) -> str | None:
        if self.data_dir is None:
            return None
        return os.path.join(self.data_dir, f"replica-{self.pid}.journal")

    async def listen(self, *, peer_port: int = 0, http_port: int | None = 0) -> None:
        """Bind the peer socket (and the HTTP front-end unless disabled)."""
        server = await asyncio.get_running_loop().create_server(
            lambda: PeerProtocol(self.links), self.host, peer_port
        )
        self._servers.append(server)
        self.peer_port = server.sockets[0].getsockname()[1]
        if http_port is not None:
            from repro.net.http import serve_http

            http_server = await serve_http(self, self.host, http_port)
            self._servers.append(http_server)
            self.http_port = http_server.sockets[0].getsockname()[1]

    def set_peers(self, peers: dict[int, tuple[str, int]]) -> None:
        """Install the peer address book (``pid -> (host, peer_port)``)."""
        self.links.set_peers(peers)

    async def start(self) -> None:
        """Connect to peers, recover from disk if an image exists, start
        the periodic anti-entropy tick and the journal flusher."""
        await self.links.connect()
        if self.data_dir is not None:
            # Boot-time one-shot disk work: start() runs before any
            # traffic is served, so nothing else is on the loop to stall.
            os.makedirs(self.data_dir, exist_ok=True)
            self._recover_from_disk()
        # Peers that dialled in while we booted get no request of their
        # own: the first sync round after boot (a recovery's rejoin
        # broadcast, or the first tick) completes their epochs.
        self._booted = True
        self._spawn(self._sync_loop())
        if self.data_dir is not None:
            self._spawn(self._flush_loop())

    def _recover_from_disk(self) -> None:
        """Open the journal and recover whatever it holds: the records
        its scan verified go straight to the core (records in, replica
        out — one decode and one chain check per record per boot).

        Every failure mode — torn beyond repair, bit-flipped frames, a
        restore that rejects the image — is normalised to
        :class:`~repro.storage.journal.CorruptImageError` and handled per
        :attr:`on_corrupt`.
        """
        assert self.journal_path is not None
        try:
            self._store = JournalStore(self.journal_path, self.pid)
            image = self._store.open()
        except CorruptImageError as exc:
            self._quarantine_or_raise(exc)
            return
        if image is None:
            return
        try:
            self._apply_effects(self.core.recover(image))
        except ValueError as exc:
            # Well-framed, well-chained records the restore still rejects
            # (no meta record, a base this replica cannot install): same
            # corruption policy.
            self._quarantine_or_raise(
                CorruptImageError(self.journal_path, 0, str(exc))
            )

    def _quarantine_or_raise(self, exc: CorruptImageError) -> None:
        """Apply the :attr:`on_corrupt` policy to a damaged image."""
        self.corrupt_image = exc
        self._log.error(
            "corrupt_image", path=exc.path, offset=exc.offset, error=exc.reason
        )
        if self._store is not None:
            self._store.close()
            self._store = None
        if self.on_corrupt == "raise":
            raise exc
        # Quarantine: set the damaged file aside (keeping the evidence),
        # reopen a fresh journal and rejoin empty — anti-entropy pulls
        # back everything the cluster still has.
        if os.path.exists(exc.path):
            os.replace(exc.path, exc.path + ".corrupt")
            fsync_dir(os.path.dirname(exc.path) or ".")
        assert self.journal_path is not None
        self._store = JournalStore(self.journal_path, self.pid)
        self._store.open()

    async def stop(self) -> None:
        """Graceful shutdown: flush the durable image, then close."""
        if self.data_dir is not None and not self._stopped:
            self._flush_snapshot()
        self.kill()
        await asyncio.sleep(0)  # let cancelled tasks unwind

    def kill(self) -> None:
        """Abrupt crash: close everything, *without* a final flush — the
        unflushed tail of the log is lost, as a real power cut loses it."""
        self._stopped = True
        if self._store is not None:
            # Nothing is buffered between flushes (every sync() ends in
            # flush+fsync), so closing the fd loses exactly the updates
            # that were never appended — the crash model's lost tail.
            self._store.close()
            self._store = None
        for task in self._tasks:
            task.cancel()
        self._tasks.clear()
        for server in self._servers:
            server.close()
        self._servers.clear()
        self.links.close()

    # -- application surface (wait-free, synchronous) -------------------------------

    def submit(self, update: Any, *, ctx: TraceContext | None = None) -> dict[str, Any]:
        """Issue one update locally; returns the replica's witness metadata
        (timestamp etc.).  Never awaits.

        With a :class:`~repro.obs.wall.TraceContext` (minted by the HTTP
        front-end), this node's convergence lag (submit wall time to local
        visibility) is observed.  On a node whose tracer is enabled the
        update is also *traced*: its trace rides every outgoing frame the
        submit produces, and ``update.local_apply`` / ``update.visible``
        are recorded.  A frame carries trace headers iff the node's
        tracer is enabled, so an untraced node's wire bytes are those of
        an untraced build — the sim↔net differential test depends on that.
        """
        self._check_running()
        if ctx is None or not self.tracer.enabled:
            self._apply_effects(self.core.submit(update))
            if ctx is not None:
                self._conv_lag.observe(max(0.0, wall_now() - ctx.t0))
            return self.core.witness_meta()
        t_start = wall_now()
        effects = self.core.submit(update)
        meta = self.core.witness_meta()
        ts = self._timestamp_key(meta.get("timestamp"))
        if ts is not None:
            self._remember_trace(ts, ctx.trace_id, ctx.t0)
            self._out_traces = {ts: (ctx.trace_id, ctx.t0)}
        try:
            self._apply_effects(effects)
        finally:
            self._out_traces = None
        now = wall_now()
        lag = max(0.0, now - ctx.t0)
        self._conv_lag.observe(lag)
        attrs: dict[str, Any] = {"trace": ctx.trace_id}
        if ts is not None:
            attrs["ts"] = encode_ts_key(ts)
        self.tracer.span(
            "update.local_apply", t_start, now, pid=self.pid, attrs=attrs
        )
        self.tracer.event(
            "update.visible", now, pid=self.pid,
            attrs={**attrs, "lag_s": round(lag, 6)},
        )
        return meta

    def query(self, name: str, args: tuple[Hashable, ...] = ()) -> Any:
        """Answer one query from local state.  Never awaits."""
        self._check_running()
        output, effects = self.core.query(name, args)
        if effects:
            self._apply_effects(effects)
        return output

    def local_state(self) -> Any:
        return self.core.local_state()

    def witness_meta(self) -> dict[str, Any]:
        return self.core.witness_meta()

    def sync_now(self) -> None:
        """Force one anti-entropy round out of band (tests, admin)."""
        self._check_running()
        self._apply_effects(self.core.sync_tick())

    def mint_trace_id(self) -> str:
        """A fresh trace id, unique per (node, incarnation): ``t<pid>-<seq>``.

        Deterministic — no randomness, so two runs of the same scripted
        scenario mint the same ids, and a trace id alone names the
        front-end that accepted the update.
        """
        self._trace_seq += 1
        return f"t{self.pid:x}-{self._trace_seq:x}"

    # -- the effect interpreter ------------------------------------------------------

    def _apply_effects(self, effects: tuple[Effect, ...]) -> None:
        for eff in effects:
            cls = eff.__class__
            if cls is Broadcast:
                if self.links.peers:  # a peerless node encodes nothing
                    data = self._frame(eff.payload, self._out_traces)
                    for dst in self.links.peers:
                        self.links.ship(dst, data)
            elif cls is Send:
                self.links.ship(eff.dst, self._frame(eff.payload, self._send_traces()))
            elif cls is Timer:
                self._spawn(self._one_shot_tick(eff.kind))
            elif cls is Persist:
                if not self._dirty:
                    self._dirty_since = time.monotonic()
                self._dirty = True  # the flusher owns the disk
            # QueryAnswered: already consumed synchronously by query().

    def _frame(self, payload: Any, traces: dict[tuple[int, int], Any] | None) -> bytes:
        """One MSG frame, encoded once for however many links carry it."""
        headers = encode_trace_headers(traces) if traces else None
        return encode_frame(with_headers((MSG, self.pid, payload), headers))

    # -- trace propagation -----------------------------------------------------------

    @staticmethod
    def _timestamp_key(raw: Any) -> tuple[int, int] | None:
        """Normalize witness-metadata timestamps to a ``(clock, pid)`` key
        (CRDT baselines expose no Lamport timestamp — their updates simply
        go untraced on the wire)."""
        if isinstance(raw, (tuple, list)) and len(raw) == 2:
            try:
                return int(raw[0]), int(raw[1])
            except (TypeError, ValueError):
                return None
        return None

    def _remember_trace(self, ts: tuple[int, int], trace_id: str, t0: float) -> None:
        self._trace_recent.pop(ts, None)  # refresh recency on re-announce
        self._trace_recent[ts] = (trace_id, t0)
        while len(self._trace_recent) > TRACE_RECENT_CAP:
            del self._trace_recent[next(iter(self._trace_recent))]

    def _send_traces(self) -> dict[tuple[int, int], tuple[str, float]] | None:
        """Trace headers for a directed send: the in-flight batch's traces
        plus the tail of the recent index.  Directed sends are the sync
        response / state transfer path — attaching recently seen traces is
        what lets a node that was down during the broadcast still join an
        update's span tree when anti-entropy repairs it."""
        if not self.tracer.enabled:
            return None
        out = dict(self._out_traces) if self._out_traces else {}
        if self._trace_recent:
            recent = list(self._trace_recent.items())[-TRACE_SEND_CAP:]
            for ts, ctx in recent:
                out.setdefault(ts, ctx)
        return out or None

    # -- inbound peer frames -----------------------------------------------------------

    def _on_frame(self, frame: Any, conn: PeerProtocol) -> bool:
        """Dispatch one inbound peer frame; False (close the link) if malformed."""
        if not (isinstance(frame, (list, tuple)) and len(frame) > 1
                and isinstance(frame[1], int) and 0 <= frame[1] < self.n):
            return False
        kind, src, rest = frame[0], frame[1], frame[2:]
        if kind == HELLO:
            # The peer is back on a new connection: a new link epoch
            # (while booting, the first round after boot completes it).
            self.links.heard_from(conn, src)
            if self._booted:
                self._apply_effects(self.core.link_established(src))
        elif not rest:
            return False
        elif kind == MSG:
            self._received.inc()
            try:
                self._deliver_traced(src, *split_headers(rest))
            except SyncProtocolError:
                return False  # a handshake payload the core refused
        elif kind == PING:  # answer on our own link: the inbound one is theirs
            self.links.write(src, encode_frame((PONG, self.pid, rest[0])))
        elif kind == PONG:
            self._note_pong(src, rest[0])
        return True  # anything unknown needs no reply

    def _deliver_traced(self, src: int, payload: Any, headers: dict[str, Any]) -> None:
        """Deliver one peer payload, honouring any trace headers it carries.

        Traces on the frame propagate onto whatever frames the delivery
        itself produces (relays, sync responses).  For each trace this
        node has not yet seen, the delivery is recorded as that trace's
        ``update.remote_apply`` span and the node's convergence lag —
        wall time since the front-end stamped ``t0`` — is observed.
        """
        traces = decode_trace_headers(headers) if headers else {}
        if not traces:
            self._apply_effects(self.core.deliver(src, payload))
            return
        fresh = {ts: tc for ts, tc in traces.items() if ts not in self._trace_recent}
        t_start = wall_now()
        if self.tracer.enabled:  # an untraced node puts no header on the wire
            self._out_traces = traces
        try:
            self._apply_effects(self.core.deliver(src, payload))
        finally:
            self._out_traces = None
        now = wall_now()
        for ts, (trace_id, t0) in fresh.items():
            self._remember_trace(ts, trace_id, t0)
            lag = max(0.0, now - t0)
            self._conv_lag.observe(lag)
            if self.tracer.enabled:
                attrs = {"trace": trace_id, "ts": encode_ts_key(ts), "src": src}
                self.tracer.span(
                    "update.remote_apply", t_start, now, pid=self.pid, attrs=attrs
                )
                self.tracer.event(
                    "update.visible", now, pid=self.pid,
                    attrs={**attrs, "lag_s": round(lag, 6)},
                )

    def _link_lost(self, peer: int) -> None:
        self._apply_effects(self.core.link_lost(peer))

    # -- peer-link RTT probes ----------------------------------------------------------

    def _ping_peers(self) -> None:
        for dst in self.links.up():
            self._ping_seq += 1
            self._ping_pending[dst] = (self._ping_seq, time.monotonic())
            self.links.write(dst, encode_frame((PING, self.pid, self._ping_seq)))

    def _note_pong(self, src: int, seq: Any) -> None:
        pending = self._ping_pending.get(src)
        if pending is None or pending[0] != seq:
            return  # stale or duplicated echo
        del self._ping_pending[src]
        rtt = time.monotonic() - pending[1]
        self._rtt_gauge.labels(pid=str(self.pid), peer=str(src)).set(rtt)

    # -- periodic work -----------------------------------------------------------------

    async def _sync_loop(self) -> None:
        while not self._stopped:
            await asyncio.sleep(self.sync_interval)
            self._spawn(self.links.connect())  # re-dial missing or down links
            if self.links.peers and self.core.sync_capable:
                self._apply_effects(self.core.sync_tick())  # no peer, no one to ask
                # the liveness beacon that moves a GC replica's floor
                self._apply_effects(self.core.sync_tick("heartbeat"))
            self._ping_peers()
            self._outbox_gauge.set(self.links.outbox_bytes())
            gc = self.gc_info()
            if gc is not None:
                self._floor_lag.set(gc["floor_lag"])

    async def _one_shot_tick(self, kind: str) -> None:
        await asyncio.sleep(self.sync_interval / 2)
        if not self._stopped:
            self._apply_effects(self.core.sync_tick(kind))

    async def _flush_loop(self) -> None:
        while not self._stopped:
            await asyncio.sleep(self.flush_interval)
            if self._dirty:
                self._flush_snapshot()

    def _flush_snapshot(self) -> None:
        """Flush the durable image: append the changed journal cells.

        Bytes written *and entries examined* are flat in the log length —
        the clock cell (if it advanced) plus the entries from the
        replica's flush mark, i.e. what arrived since the last flush;
        compaction (a full atomic rewrite) only happens when the GC
        floor moved.
        """
        if self.journal_path is None:
            return
        if self._store is None:
            # Flush before start() (stop() on a never-started node):
            # create the journal on demand.
            os.makedirs(self.data_dir, exist_ok=True)  # type: ignore[arg-type]
            self._store = JournalStore(self.journal_path, self.pid)
            self._store.open()
        stats = self._store.sync(self.core.replica)
        self._journal_records.inc(stats["appended"])
        if stats["compacted"]:
            self._journal_compactions.inc()
        self._dirty = False
        if self._dirty_since is not None:
            self._flush_latency.observe(time.monotonic() - self._dirty_since)
            self._dirty_since = None
        self._flushes.inc()

    def gc_info(self) -> dict[str, Any] | None:
        """The ``/healthz`` gc section, ``None`` on a replica that keeps no
        completeness claims: the floor, ``heard``, each peer's link epoch,
        ``floor_lag = clock - min(heard)`` and ``pinned_by``, the process
        whose ``heard`` entry is that minimum (the lowest pid on a tie)."""
        replica = self.core.replica
        epochs = replica.link_epochs
        if epochs is None:
            return None
        heard = [int(h) for h in replica.heard]
        low = min(heard)
        return {
            "floor": replica.gc_clock_floor,
            "heard": heard,
            "epochs": {str(j): e for j, e in enumerate(epochs) if j != self.pid},
            "floor_lag": replica.clock.value - low,
            "pinned_by": heard.index(low),
        }

    def storage_info(self) -> dict[str, Any]:
        """The ``/healthz`` storage section: backend, journal stats, and
        the last corrupt-image error (if any)."""
        info: dict[str, Any] = {
            "backend": "journal" if self.data_dir is not None else "none",
            "corrupt_image": None if self.corrupt_image is None else {
                "path": self.corrupt_image.path,
                "offset": self.corrupt_image.offset,
                "reason": self.corrupt_image.reason,
            },
        }
        if self._store is not None:
            info["journal"] = self._store.info()
        return info

    # -- internals ----------------------------------------------------------------------

    def _spawn(self, coro) -> None:
        if self._stopped:
            coro.close()
            return
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._task_done)

    def _task_done(self, task: asyncio.Task) -> None:
        """Done-callback for every background task: surface exceptions.

        Without this, a task that dies (sync loop, flusher, one-shot
        tick) vanishes silently — asyncio only mentions never-retrieved
        exceptions at GC time, on stderr, long after the damage.  The
        error is logged, counted, and kept on :attr:`task_errors` so
        tests and operators can assert on it.
        """
        self._tasks.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        if exc is None:
            return
        self.task_errors.append(exc)
        self._task_errors.inc()
        self._log.error("task_crashed", task=task.get_name(), error=exc)

    def _check_running(self) -> None:
        if self._stopped:
            raise NodeStoppedError(f"node {self.pid} has been stopped")
