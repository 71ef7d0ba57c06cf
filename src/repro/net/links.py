"""Peer links: a node's TCP mesh on ``asyncio.Protocol`` callbacks.

Each peer has one outbound link — connecting, up or down — and is heard
on the connection it dialled, whose frames ``data_received`` splits out
of one ``bytearray``.  A frame for a link that is not up is dropped and
counted; a missing or down link is dialled once per sync tick, or at
once on the peer's ``HELLO`` or new address (DESIGN.md §13).

The connection a peer is heard on is the unit of a link epoch (DESIGN.md
§11): its ``HELLO`` makes it the peer's one current inbound connection —
an older one is closed, so no frame of a past connection can follow the
new one's — and losing the current one is the node's ``LinkLost``."""

from __future__ import annotations

import asyncio
from typing import Any, Callable

from repro.net.framing import FrameError, encode_frame, pop_frames
from repro.obs.metrics import MetricsRegistry

#: the first frame on every dialled link: ``(HELLO, pid)``.
HELLO = "hello"
CONNECTING, UP, DOWN = "connecting", "up", "down"


class PeerProtocol(asyncio.Protocol):
    """The outbound link to peer ``dst``, or an inbound connection."""

    def __init__(self, links: PeerLinks, dst: int | None = None) -> None:
        self.links, self.dst, self.state, self.transport = links, dst, CONNECTING, None
        self._buf = bytearray()
        #: inbound: the peer whose ``HELLO`` this connection carried.
        self.src: int | None = None

    def connection_made(self, transport: Any) -> None:
        self.transport, links = transport, self.links
        if links.closed or (self.dst is not None and links.out.get(self.dst) is not self):
            transport.close()  # a killed node, or a link superseded while dialling
        elif self.dst is None:
            links.inbound.add(self)
        else:
            self.state = UP
            transport.write(links.hello)

    def data_received(self, data: bytes) -> None:
        self._buf += data
        try:
            for frame in pop_frames(self._buf):
                if not self.links.deliver(frame, self):
                    raise FrameError(f"malformed peer frame {frame!r:.80}")
        except FrameError:
            self.links.rejected.inc()
            self.transport.close()

    def connection_lost(self, exc: Exception | None) -> None:
        self.state = DOWN
        links = self.links
        links.inbound.discard(self)
        if self.src is not None and links.heard_on.get(self.src) is self:
            del links.heard_on[self.src]
            links.lost(self.src)

    def close(self) -> None:
        self.state = DOWN
        if self.transport is not None:
            self.transport.close()


class PeerLinks:
    """The address book, one link per peer, the inbound connections and
    their counters.  ``deliver(frame, conn)`` is the node's dispatch
    (False: malformed); ``spawn`` runs a dial under the node's task
    bookkeeping; ``lost(peer)`` reports that the connection ``peer`` was
    heard on is gone."""

    def __init__(self, pid: int, registry: MetricsRegistry,
                 deliver: Callable[[Any, PeerProtocol], bool],
                 spawn: Callable[[Any], None], lost: Callable[[int], None]) -> None:
        self.pid, self.deliver, self._spawn, self.lost = pid, deliver, spawn, lost
        self.peers: dict[int, tuple[str, int]] = {}
        self.out: dict[int, PeerProtocol] = {}
        self.inbound: set[PeerProtocol] = set()
        #: per peer, the inbound connection its latest ``HELLO`` came on.
        self.heard_on: dict[int, PeerProtocol] = {}
        self.closed = False
        self.hello = encode_frame((HELLO, pid))
        count = registry.counter
        self._sent = count(
            "repro_net_frames_sent_total", "peer frames queued on TCP links").labels()
        self._drops = count(
            "repro_net_frames_dropped_total", "frames dropped for lack of a live link").labels()
        self.rejected = count("repro_net_frames_rejected_total", "malformed peer frames")
        self._dials = count("repro_net_peer_dials_total", "peer-link dials", ("outcome",))

    def set_peers(self, peers: dict[int, tuple[str, int]]) -> None:
        """Install the address book; re-dial a linked peer that moved."""
        old, self.peers = self.peers, {p: a for p, a in peers.items() if p != self.pid}
        for dst in [d for d in self.out if self.peers.get(d) != old.get(d)]:
            self.out[dst].close()
            self.dial(dst)

    async def connect(self) -> None:
        """Dial every missing or down link (at boot, then once per sync tick)."""
        await asyncio.gather(*filter(None, map(self._dial, list(self.peers))))

    def heard_from(self, conn: PeerProtocol, src: int) -> None:
        """``src`` dialled us on ``conn``: hear it there from now on, close
        the connection it was heard on before, and repair our half now."""
        old, conn.src, self.heard_on[src] = self.heard_on.get(src), src, conn
        if old is not None and old is not conn:
            old.close()
        self.dial(src)

    def dial(self, dst: int) -> None:
        """Re-dial ``dst``'s link now if it is down (not before boot dialled it)."""
        if dst in self.out and (coro := self._dial(dst)) is not None:
            self._spawn(coro)

    def _dial(self, dst: int) -> Any:
        link = self.out.get(dst)
        if self.closed or dst not in self.peers or (link and link.state != DOWN):
            return None
        link = self.out[dst] = PeerProtocol(self, dst)
        return self._open(link, *self.peers[dst])

    async def _open(self, link: PeerProtocol, host: str, port: int) -> None:
        outcome = "ok"
        try:
            await asyncio.get_running_loop().create_connection(lambda: link, host, port)
        except OSError:
            link.state, outcome = DOWN, "failed"
        self._dials.labels(outcome=outcome).inc()

    def write(self, dst: int, data: bytes) -> bool:
        """Write encoded frame bytes on ``dst``'s link if it is up."""
        link = self.out.get(dst)
        if link is None or link.state != UP or link.transport.is_closing():
            return False
        link.transport.write(data)
        return True

    def ship(self, dst: int, data: bytes) -> None:
        """A protocol frame: written, or dropped — counted either way."""
        (self._sent if self.write(dst, data) else self._drops).inc()

    def up(self) -> list[int]:
        return [dst for dst, link in self.out.items() if link.state == UP]

    def outbox_bytes(self) -> int:
        return sum(self.out[d].transport.get_write_buffer_size() for d in self.up())

    def close(self) -> None:
        """Close every connection; drop the node's callbacks (no ref cycle)."""
        self.closed, self.deliver, self._spawn, self.lost = True, None, None, None  # type: ignore[assignment]
        for link in [*self.out.values(), *self.inbound]:
            link.close()
        self.out.clear()
        self.heard_on.clear()
