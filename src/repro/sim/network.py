"""Network model: reliable, complete, asynchronous — with an adversary.

The paper's channel assumptions (Section VII-A): every pair of processes is
connected, messages between correct processes are eventually delivered, and
there is no bound on transfer delays.  The simulator realizes "no bound" as
an adversary: a pluggable :class:`LatencyModel` draws per-message delays
from a seeded generator, and explicit *holds* (used by the Proposition 1
experiment) park traffic between chosen process pairs until released —
modelling the indistinguishability argument ("p1 cannot tell a crashed p2
from one whose messages are delayed").

Partitions are symmetric holds between groups; healing releases the parked
messages, preserving reliability.  Per-channel FIFO ordering is optional:
Algorithm 1 does not need it, the pipelined-consistency baseline and the
stable-prefix GC replica do.

The channel model is itself guarded: every adversary action (hold, release,
drop, partition) must preserve per-channel delivery monotonicity on FIFO
channels, and a :class:`ChannelInvariantChecker` re-asserts that invariant
on every :meth:`Network.pop_next` — a buggy adversary raises
:class:`ChannelInvariantError` instead of silently corrupting the model.
Two fault-injection subclasses weaken reliability on purpose:
:class:`LossyNetwork` (seeded message loss) and :class:`DuplicatingNetwork`
(seeded re-delivery); both keep the FIFO floors consistent.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer


def _payload_bits(payload: Any) -> int | None:
    """Wire-size estimate for trace attributes; ``None`` when the payload
    is outside :func:`~repro.analysis.metrics.payload_size_bits`'s codec."""
    from repro.analysis.metrics import payload_size_bits

    try:
        return payload_size_bits(payload)
    except TypeError:
        return None


@dataclass(frozen=True, slots=True)
class Message:
    """An in-flight payload with its routing and timing metadata."""

    src: int
    dst: int
    payload: Any
    sent_at: float
    deliver_at: float
    seq: int  # global sequence number: deterministic tie-breaking

    def sort_key(self) -> tuple[float, int]:
        """Deterministic delivery order: time, then global send number."""
        return (self.deliver_at, self.seq)


class LatencyModel:
    """Draws a delivery delay for each message."""

    def delay(self, src: int, dst: int, rng: np.random.Generator) -> float:
        """The delay for one src→dst message (pure in ``rng``)."""
        raise NotImplementedError


class FixedLatency(LatencyModel):
    """Constant delay (synchronous-looking network; useful as a control)."""

    def __init__(self, value: float = 1.0) -> None:
        if value < 0:
            raise ValueError("latency must be non-negative")
        self.value = float(value)

    def delay(self, src: int, dst: int, rng: np.random.Generator) -> float:
        return self.value


class UniformLatency(LatencyModel):
    """Delay uniform in ``[low, high]`` — bounded but unpredictable."""

    def __init__(self, low: float = 0.5, high: float = 2.0) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"need 0 <= low <= high, got [{low}, {high}]")
        self.low, self.high = float(low), float(high)

    def delay(self, src: int, dst: int, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))


class ExponentialLatency(LatencyModel):
    """Heavy-ish tail: mean ``scale``, unbounded support — the asynchronous
    model's 'no bound on transfer delays' made concrete."""

    def __init__(self, scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = float(scale)

    def delay(self, src: int, dst: int, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.scale))


class ChannelInvariantError(AssertionError):
    """An adversary action broke the channel model (FIFO reorder)."""


class ChannelInvariantChecker:
    """Watchdog over the channel model itself.

    Observes every delivery and asserts per-channel monotonicity: on a FIFO
    channel, both the delivery time and the send sequence number must be
    non-decreasing per ``(src, dst)`` pair.  The network consults it on
    every :meth:`Network.pop_next`, so an adversary action that corrupts
    the FIFO floors (the class of bug `release()` historically had) fails
    loudly at the first out-of-order delivery instead of surfacing later
    as replica-level divergence or a spurious ``StabilityViolation``.
    """

    def __init__(self) -> None:
        #: per channel: (deliver_at, seq) of the last delivered message.
        self._last: dict[tuple[int, int], tuple[float, int]] = {}
        self.observed = 0

    def observe(self, msg: Message) -> None:
        """Record one delivery; raise on a per-channel order violation."""
        self.observed += 1
        chan = (msg.src, msg.dst)
        last = self._last.get(chan)
        if last is not None:
            last_time, last_seq = last
            if msg.deliver_at < last_time or msg.seq < last_seq:
                raise ChannelInvariantError(
                    f"FIFO violation on channel {chan}: message seq={msg.seq} "
                    f"at t={msg.deliver_at} delivered after seq={last_seq} "
                    f"at t={last_time}"
                )
        self._last[chan] = (msg.deliver_at, msg.seq)

    def last_delivery(self, src: int, dst: int) -> tuple[float, int] | None:
        """The ``(deliver_at, seq)`` of the channel's last delivery, if any."""
        return self._last.get((src, dst))


class Network:
    """Pending-message pool with delays, holds, partitions and FIFO option.

    Not a public entry point — :class:`repro.sim.cluster.Cluster` owns one.
    """

    #: ``(src, dst, time)``: called where a lost frame would have been
    #: delivered (:class:`LossyNetwork`); the cluster installs it.
    on_lost: Callable[[int, int, float], None] | None = None

    def __init__(
        self,
        n: int,
        latency: LatencyModel | None = None,
        rng: np.random.Generator | None = None,
        fifo: bool = False,
        check_invariants: bool = True,
    ) -> None:
        if n <= 0:
            raise ValueError("need at least one process")
        self.n = n
        self.latency = latency if latency is not None else FixedLatency(1.0)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.fifo = fifo
        self._heap: list[tuple[tuple[float, int], Message]] = []
        self._held: list[Message] = []
        self._holds: set[tuple[int, int]] = set()
        self._seq = itertools.count()
        self._last_fifo_deliver_at: dict[tuple[int, int], float] = {}
        #: per channel: deliver_at of the newest message actually delivered
        #: (FIFO only; the floor below which no channel may be re-floored).
        self._last_delivered_at: dict[tuple[int, int], float] = {}
        self.invariants: ChannelInvariantChecker | None = (
            ChannelInvariantChecker() if (fifo and check_invariants) else None
        )
        #: virtual-time tracer; the cluster swaps its own in when tracing.
        self.tracer: NullTracer = NULL_TRACER
        #: observability home: private until the cluster re-binds it onto
        #: the shared per-run registry.
        self.metrics = MetricsRegistry()
        self.bind_metrics(self.metrics)

    # -- observability -----------------------------------------------------------

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        """(Re-)home the network's instruments on ``registry``.

        Subclasses creating extra instruments (loss, duplication) override
        this; it runs from ``__init__`` before subclass state exists, so
        overrides may use only the registry argument.
        """
        self.metrics = registry
        self._sent = registry.counter(
            "repro_network_messages_sent_total",
            help="point-to-point sends (a broadcast is n-1 of these; "
            "Section VII-C: one broadcast per update)",
        ).labels()
        self._delivered = registry.counter(
            "repro_network_messages_delivered_total",
            help="messages handed to the cluster for delivery",
        ).labels()

    # -- sending ---------------------------------------------------------------

    def send(self, src: int, dst: int, payload: Any, now: float) -> Message:
        """Enqueue one point-to-point message; returns it for inspection."""
        self._check_pid(src)
        self._check_pid(dst)
        delay = 0.0 if src == dst else self.latency.delay(src, dst, self.rng)
        deliver_at = now + delay
        if self.fifo:
            # FIFO channels: delivery time monotone per (src, dst).
            floor = self._last_fifo_deliver_at.get((src, dst), -np.inf)
            deliver_at = max(deliver_at, floor)
            self._last_fifo_deliver_at[(src, dst)] = deliver_at
        msg = Message(src, dst, payload, now, deliver_at, next(self._seq))
        self._sent.inc()
        if self.tracer.enabled:
            self.tracer.event(
                "message.send", now, pid=src,
                attrs={"dst": dst, "seq": msg.seq, "deliver_at": deliver_at,
                       "bits": _payload_bits(payload)},
            )
        self._commit(msg)
        return msg

    def _commit(self, msg: Message) -> None:
        """Hand a stamped message to the in-flight pool (or the hold pen).

        The single enqueue point: fault-injection subclasses override it to
        lose or re-deliver traffic *after* the FIFO floors were advanced,
        so their mischief can never reorder a channel.
        """
        if (msg.src, msg.dst) in self._holds:
            self._held.append(msg)
        else:
            heapq.heappush(self._heap, (msg.sort_key(), msg))

    def broadcast(self, src: int, payload: Any, now: float) -> list[Message]:
        """One message to every *other* process.

        Algorithm 1's broadcast includes the sender, with the proof noting
        that "messages are received instantaneously by the sender"; the
        replica implementations realize that instantaneous self-delivery by
        applying their own payload inside ``on_update`` (wait-freedom: a
        process's own update is visible to its very next query), so the
        network must not deliver it a second time."""
        return [self.send(src, dst, payload, now) for dst in range(self.n) if dst != src]

    # -- delivery ---------------------------------------------------------------

    def pop_next(self) -> Message | None:
        """The next deliverable message in (deliver_at, seq) order."""
        if not self._heap:
            return None
        _, msg = heapq.heappop(self._heap)
        if self.fifo:
            chan = (msg.src, msg.dst)
            if self.invariants is not None:
                self.invariants.observe(msg)
            prev = self._last_delivered_at.get(chan, -np.inf)
            self._last_delivered_at[chan] = max(prev, msg.deliver_at)
        self._delivered.inc()
        return msg

    def peek_time(self) -> float | None:
        """Delivery time of the next deliverable message, if any."""
        return self._heap[0][1].deliver_at if self._heap else None

    def pending_count(self) -> int:
        """In-flight messages, including held ones."""
        return len(self._heap) + len(self._held)

    def drop_messages(self, predicate: Callable[[Message], bool]) -> int:
        """Adversarially drop in-flight messages (used to model a sender
        crashing mid-broadcast).  Returns the number dropped.

        On FIFO channels the floors are recomputed afterwards: a floor must
        not keep pointing at a dropped message's delivery time, or the
        channel stays artificially delayed forever.
        """
        kept = [(k, m) for k, m in self._heap if not predicate(m)]
        dropped = len(self._heap) - len(kept)
        held_kept = [m for m in self._held if not predicate(m)]
        dropped += len(self._held) - len(held_kept)
        self._heap = kept
        heapq.heapify(self._heap)
        self._held = held_kept
        if self.fifo and dropped:
            self._refloor()
        return dropped

    def _refloor(self) -> None:
        """Recompute the FIFO floors from what is actually still pending.

        A channel's floor is the max of its last *delivered* time and every
        still-in-flight (or held) message's delivery time — never less, or
        a later send could be scheduled under a delivery that already
        happened; never referencing dropped traffic, or the channel drags a
        phantom delay.
        """
        floors = dict(self._last_delivered_at)
        for _, msg in self._heap:
            chan = (msg.src, msg.dst)
            if floors.get(chan, -np.inf) < msg.deliver_at:
                floors[chan] = msg.deliver_at
        for msg in self._held:
            chan = (msg.src, msg.dst)
            if floors.get(chan, -np.inf) < msg.deliver_at:
                floors[chan] = msg.deliver_at
        self._last_fifo_deliver_at = floors

    # -- adversary: holds & partitions --------------------------------------------

    def hold(self, src: int, dst: int) -> None:
        """Park all traffic src→dst (present and future) until released."""
        self._check_pid(src)
        self._check_pid(dst)
        if src == dst:
            raise ValueError(
                f"cannot hold the self-channel ({src}, {dst}): self-delivery "
                f"is instantaneous and never crosses the network"
            )
        self._holds.add((src, dst))
        still = []
        for key, msg in self._heap:
            if (msg.src, msg.dst) == (src, dst):
                self._held.append(msg)
            else:
                still.append((key, msg))
        self._heap = still
        heapq.heapify(self._heap)

    def release(self, src: int, dst: int, now: float) -> None:
        """Stop holding src→dst; parked messages become deliverable at
        ``now`` (reliability: held ≠ lost).

        On FIFO channels every rescheduled message is re-floored against
        ``_last_fifo_deliver_at`` — and pushes the floor in turn — so a
        held-then-released message can never be delivered after (or
        scheduled under) traffic sent later on the same channel.
        """
        self._holds.discard((src, dst))
        kept: list[Message] = []
        releasing: list[Message] = []
        for msg in self._held:
            (releasing if (msg.src, msg.dst) == (src, dst) else kept).append(msg)
        self._held = kept
        releasing.sort(key=lambda m: m.seq)  # channel send order
        for msg in releasing:
            deliver_at = max(now, msg.deliver_at)
            if self.fifo:
                floor = self._last_fifo_deliver_at.get((src, dst), -np.inf)
                deliver_at = max(deliver_at, floor)
                self._last_fifo_deliver_at[(src, dst)] = deliver_at
            rescheduled = Message(
                msg.src, msg.dst, msg.payload, msg.sent_at, deliver_at, msg.seq
            )
            heapq.heappush(self._heap, (rescheduled.sort_key(), rescheduled))

    def partition(self, groups: Iterable[Iterable[int]]) -> None:
        """Hold all traffic between distinct groups (symmetric).

        Groups must be pairwise disjoint: an overlap would make a process a
        member of both sides of the cut, asking for the (meaningless)
        self-hold ``hold(p, p)``.
        """
        sets = [set(g) for g in groups]
        seen: set[int] = set()
        for group in sets:
            for pid in group:
                self._check_pid(pid)
            overlap = group & seen
            if overlap:
                raise ValueError(
                    f"partition groups must be disjoint; {sorted(overlap)} "
                    f"appear in more than one group"
                )
            seen |= group
        for i, a in enumerate(sets):
            for b in sets[i + 1 :]:
                for s in a:
                    for d in b:
                        self.hold(s, d)
                        self.hold(d, s)

    def heal(self, now: float) -> list[tuple[int, int]]:
        """Release every hold (the partition ends; traffic resumes);
        returns the released ``(src, dst)`` channels, sorted."""
        healed = sorted(self._holds)
        for src, dst in healed:
            self.release(src, dst, now)
        return healed

    def dissolve_holds(self, pid: int, now: float) -> None:
        """Release every hold with ``pid`` as an endpoint.

        The crash path uses this: a dead process stops being a
        hold/partition endpoint, so traffic it already sent is released
        (subject to channel reliability) rather than stranded forever.
        Public API so the cluster never reaches into ``_holds``.
        """
        self._check_pid(pid)
        for src, dst in list(self._holds):
            if pid in (src, dst):
                self.release(src, dst, now)

    def _check_pid(self, pid: int) -> None:
        if not 0 <= pid < self.n:
            raise ValueError(f"pid {pid} out of range for {self.n} processes")


#: the payload of a lost frame's stand-in (:class:`LossyNetwork`).
LOST = object()


class LossyNetwork(Network):
    """Fault injection: each message is lost in transit with probability
    ``drop_probability`` (seeded, so runs stay reproducible).

    Loss happens at commit time, *after* the FIFO floors advanced: a lossy
    FIFO channel may skip messages but never reorders the survivors.  This
    deliberately breaks the paper's reliable-channel assumption (Section
    VII-A) — Algorithm 1 alone no longer converges; the epidemic relay
    (``UniversalReplica(relay=True)``) or the cluster's anti-entropy sync
    restores agreement among what did get through.

    A lost frame leaves a stand-in (payload :data:`LOST`, same slot in the
    channel) that is never delivered: when it comes due, :attr:`on_lost`
    is called with ``(src, dst, time)`` — the receiver learns that its
    link lost a frame exactly where FIFO order puts the loss, which is
    where its link epoch ends (DESIGN.md §11).  Stand-ins are not counted
    as sent, delivered or pending.  A FIFO channel is a connection: a
    loss breaks it, and what its sender writes until the receiver has
    noticed (the stand-in came due) is lost with it, as on a reset TCP
    connection — so nothing sent before the break can complete an epoch
    opened after it.
    """


    def __init__(
        self,
        n: int,
        latency: LatencyModel | None = None,
        rng: np.random.Generator | None = None,
        fifo: bool = False,
        check_invariants: bool = True,
        *,
        drop_probability: float = 0.1,
    ) -> None:
        super().__init__(n, latency, rng, fifo, check_invariants)
        if not 0 <= drop_probability <= 1:
            raise ValueError(f"drop probability must be in [0, 1], got {drop_probability}")
        self.drop_probability = drop_probability
        #: FIFO channels broken by a loss whose stand-in has not come due.
        self._broken: set[tuple[int, int]] = set()

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        super().bind_metrics(registry)
        self._lost = registry.counter(
            "repro_network_messages_lost_total",
            help="messages dropped in transit by the lossy-channel adversary",
        ).labels()

    def _commit(self, msg: Message) -> None:
        chan = (msg.src, msg.dst)
        if msg.src != msg.dst and (
            self.rng.random() < self.drop_probability or chan in self._broken
        ):
            self._lost.inc()
            if self.tracer.enabled:
                self.tracer.event(
                    "message.lost", msg.sent_at, pid=msg.src,
                    attrs={"dst": msg.dst, "seq": msg.seq},
                )
            if chan in self._broken:
                return  # one stand-in per break
            if self.fifo:
                self._broken.add(chan)
            msg = Message(msg.src, msg.dst, LOST, msg.sent_at, msg.deliver_at, msg.seq)
        super()._commit(msg)

    def _come_due(self) -> None:
        """Retire the stand-ins at the head of the queue, in order."""
        heap = self._heap
        while heap and heap[0][1].payload is LOST:
            _, lost = heapq.heappop(heap)
            self._broken.discard((lost.src, lost.dst))
            if self.on_lost is not None:
                self.on_lost(lost.src, lost.dst, lost.deliver_at)

    def drop_messages(self, predicate: Callable[[Message], bool]) -> int:
        dropped = super().drop_messages(predicate)
        # a channel whose stand-in went with the dropped traffic is whole
        self._broken &= {
            (m.src, m.dst)
            for m in (*(m for _, m in self._heap), *self._held)
            if m.payload is LOST
        }
        return dropped

    def pop_next(self) -> Message | None:
        self._come_due()
        return super().pop_next()

    def peek_time(self) -> float | None:
        self._come_due()
        return super().peek_time()

    def pending_count(self) -> int:
        return sum(
            m.payload is not LOST
            for m in (*(m for _, m in self._heap), *self._held)
        )


class DuplicatingNetwork(Network):
    """Fault injection: each message is re-delivered a second time with
    probability ``duplicate_probability`` (seeded).

    The duplicate is a genuine extra transmission: it gets its own sequence
    number and a fresh latency draw on top of the original delivery time,
    and on FIFO channels it is floored (and pushes the floor), so it
    arrives after the original and never reorders the channel.  Replicas
    must deduplicate (Algorithm 1's ``(clock, pid)`` keys do).
    """

    def __init__(
        self,
        n: int,
        latency: LatencyModel | None = None,
        rng: np.random.Generator | None = None,
        fifo: bool = False,
        check_invariants: bool = True,
        *,
        duplicate_probability: float = 0.1,
    ) -> None:
        super().__init__(n, latency, rng, fifo, check_invariants)
        if not 0 <= duplicate_probability <= 1:
            raise ValueError(
                f"duplicate probability must be in [0, 1], got {duplicate_probability}"
            )
        self.duplicate_probability = duplicate_probability

    def bind_metrics(self, registry: MetricsRegistry) -> None:
        super().bind_metrics(registry)
        self._duplicated = registry.counter(
            "repro_network_messages_duplicated_total",
            help="extra deliveries injected by the duplicating adversary",
        ).labels()

    def _commit(self, msg: Message) -> None:
        super()._commit(msg)
        if msg.src != msg.dst and self.rng.random() < self.duplicate_probability:
            deliver_at = msg.deliver_at + self.latency.delay(msg.src, msg.dst, self.rng)
            if self.fifo:
                floor = self._last_fifo_deliver_at.get((msg.src, msg.dst), -np.inf)
                deliver_at = max(deliver_at, floor)
                self._last_fifo_deliver_at[(msg.src, msg.dst)] = deliver_at
            dup = Message(
                msg.src, msg.dst, msg.payload, msg.sent_at, deliver_at, next(self._seq)
            )
            self._duplicated.inc()
            if self.tracer.enabled:
                self.tracer.event(
                    "message.duplicated", msg.sent_at, pid=msg.src,
                    attrs={"dst": msg.dst, "seq": dup.seq, "of_seq": msg.seq},
                )
            super()._commit(dup)
