"""ABD: the majority-quorum atomic register — the strong baseline.

The paper's introduction leans on two classical results to motivate weak
consistency:

* [Attiya & Welch] — sequentially consistent / linearizable operations
  must take time proportional to the network latency;
* [Attiya, Bar-Noy & Dolev — reference 3] — a shared register *can* be
  implemented atomically in message passing, but "the availability of the
  shared object cannot be ensured ... where more than a minority of the
  processes may crash".

This module implements that very algorithm (multi-writer ABD) on the
simulator so both costs are measurable against Algorithm 2:

* every operation is **two round-trips to a majority** (read: query
  phase + write-back phase; write: timestamp-query phase + store phase) —
  response time scales with the network latency
  (``benchmarks/bench_attiya_welch.py``);
* in a partition, the minority side's operations **never complete** —
  unavailability, where the update-consistent memory keeps answering.

Because operations block on quorums, they do not fit the wait-free
``on_update``/``on_query`` hooks; clients start operations with
:class:`ABDClient`, which returns handles completed by message delivery.
The read write-back phase is what makes reads atomic (a read must not be
ordered before an earlier read's value) — the detail most folklore
versions forget.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.sim.cluster import Cluster
from repro.sim.replica import Replica

Stamp = tuple[int, int]  # (sequence, writer pid): totally ordered


class Unavailable(RuntimeError):
    """The operation cannot complete: no majority is reachable."""


@dataclass
class _PendingOp:
    kind: str  # "read" | "write"
    opid: int
    value: Any = None  # value to write (write) / value read (read)
    phase: int = 1
    replies: dict[int, Any] = field(default_factory=dict)
    done: bool = False
    result: Any = None


class ABDReplica(Replica):
    """Server and client roles of multi-writer ABD at one process."""

    def __init__(self, pid: int, n: int, initial: Any = None) -> None:
        super().__init__(pid, n)
        self.stamp: Stamp = (0, 0)
        self.value: Any = initial
        self.majority = n // 2 + 1
        self._ops: dict[int, _PendingOp] = {}
        self._opid = itertools.count()

    # -- client side ------------------------------------------------------------

    def begin_read(self) -> int:
        """Start an atomic read; returns the operation id to poll."""
        op = _PendingOp("read", next(self._opid))
        self._ops[op.opid] = op
        self.send_to(None, ("q", self.pid, op.opid))
        self._reply_to_self(("q", self.pid, op.opid))
        return op.opid

    def begin_write(self, value: Any) -> int:
        """Start an atomic write of ``value``; returns the op id."""
        op = _PendingOp("write", next(self._opid), value=value)
        self._ops[op.opid] = op
        self.send_to(None, ("q", self.pid, op.opid))
        self._reply_to_self(("q", self.pid, op.opid))
        return op.opid

    def poll(self, opid: int) -> _PendingOp:
        """The pending-operation record for ``opid`` (check ``.done``)."""
        return self._ops[opid]

    def _reply_to_self(self, request) -> None:
        """The process is its own quorum member: handle locally, now."""
        self._serve(self.pid, request)

    # -- server + client message handling ------------------------------------------

    def on_message(self, src: int, payload) -> tuple:
        """Dispatch a protocol message (server request or client reply)."""
        self._serve(src, payload)
        return ()

    def _serve(self, src: int, payload) -> None:
        tag = payload[0]
        if tag == "q":  # phase-1 query: report (stamp, value)
            _, client, opid = payload
            reply = ("qr", opid, self.stamp, self.value)
            if client == self.pid:
                self._client_handle(reply)
            else:
                self.send_to(client, reply)
        elif tag == "s":  # phase-2 store: adopt if newer, ack
            _, client, opid, stamp, value = payload
            if tuple(stamp) > self.stamp:
                self.stamp, self.value = tuple(stamp), value
            ack = ("sr", opid)
            if client == self.pid:
                self._client_handle(ack)
            else:
                self.send_to(client, ack)
        else:  # replies to this process's own pending operations
            self._client_handle(payload, src=src)

    def _client_handle(self, payload, src: int | None = None) -> None:
        tag, opid = payload[0], payload[1]
        op = self._ops.get(opid)
        if op is None or op.done:
            return  # stale reply after completion
        sender = self.pid if src is None else src
        if tag == "qr" and op.phase == 1:
            _, _, stamp, value = payload
            op.replies[sender] = (tuple(stamp), value)
            if len(op.replies) >= self.majority:
                top_stamp, top_value = max(op.replies.values(), key=lambda sv: sv[0])
                op.phase = 2
                op.replies = {}
                if op.kind == "write":
                    store_stamp = (top_stamp[0] + 1, self.pid)
                    store_value = op.value
                else:
                    store_stamp, store_value = top_stamp, top_value
                    op.result = top_value
                self.send_to(None, ("s", self.pid, opid, store_stamp, store_value))
                self._serve(self.pid, ("s", self.pid, opid, store_stamp, store_value))
        elif tag == "sr" and op.phase == 2:
            op.replies[sender] = True
            if len(op.replies) >= self.majority:
                op.done = True

    # -- hooks the quorum register deliberately does NOT implement ------------------

    def on_update(self, update):  # pragma: no cover - contract documentation
        raise NotImplementedError(
            "ABD operations block on quorums; use ABDClient, not the "
            "wait-free update/query interface"
        )

    def on_query(self, name, args=()):  # pragma: no cover
        raise NotImplementedError(
            "ABD operations block on quorums; use ABDClient, not the "
            "wait-free update/query interface"
        )

    def local_state(self) -> Any:
        """This replica's stored value (for inspection only)."""
        return self.value


class ABDClient:
    """Synchronous driver for one process's ABD operations.

    ``read()``/``write(v)`` start the protocol and deliver messages until
    the operation completes, returning ``(result, elapsed_time)``; if the
    network quiesces first (partition, too many crashes), they raise
    :class:`Unavailable` — the CAP cost the paper's introduction cites.
    """

    def __init__(self, cluster: Cluster, pid: int) -> None:
        self.cluster = cluster
        self.pid = pid

    @property
    def replica(self) -> ABDReplica:
        """The ABD replica this client drives."""
        return self.cluster.replicas[self.pid]

    def read(self) -> tuple[Any, float]:
        """Atomic read: ``(value, elapsed simulated time)``."""
        return self._drive(self.replica.begin_read())

    def write(self, value: Any) -> tuple[None, float]:
        """Atomic write: ``(None, elapsed simulated time)``."""
        result, elapsed = self._drive(self.replica.begin_write(value))
        return None, elapsed

    def read_async(self) -> int:
        """Non-blocking read start; drive the cluster, then ``done()``."""
        return self._begin(self.replica.begin_read)

    def write_async(self, value: Any) -> int:
        """Non-blocking write start; drive the cluster, then ``done()``."""
        return self._begin(lambda: self.replica.begin_write(value))

    def done(self, opid: int) -> bool:
        """Has the operation reached its quorums?"""
        return self.replica.poll(opid).done

    def _begin(self, starter) -> int:
        opid = starter()
        self.cluster.ship_outbox(self.pid)
        return opid

    def _drive(self, opid: int) -> tuple[Any, float]:
        self.cluster.ship_outbox(self.pid)
        start = self.cluster.now
        op = self.replica.poll(opid)
        while not op.done:
            if not self.cluster.step():
                raise Unavailable(
                    f"operation at p{self.pid} cannot reach a majority "
                    f"({self.replica.majority} of {self.cluster.n})"
                )
        return op.result, self.cluster.now - start
