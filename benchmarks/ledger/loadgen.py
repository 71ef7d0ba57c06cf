"""Seeded inputs and the open-loop load generator.

Everything a workload feeds the system comes from ``--seed`` through the
functions here: the same seed gives the same value stream, op mix and
schedule.  The op mix is fixed at 4 updates : 1 ``contains`` (every
fifth op is the query); ``contains`` rather than ``read`` so a response
stays O(1) bytes however long the log grows.

Inserted values are distinct and all seven digits wide, so the bytes one
update costs on the wire and in the journal do not depend on the seed.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from typing import Any, Callable, NamedTuple, Sequence

from .stats import median

#: every fifth op is a query
QUERY_EVERY = 5
PRELOAD_BASE = 1_000_000
WARMUP_BASE = 1_900_000
STREAM_RANGE = range(2_000_000, 10_000_000)


class Op(NamedTuple):
    kind: str  # "insert" | "delete" | "contains"
    value: int
    #: the output a ``contains`` must return (``None``: any bool — the
    #: sim's concurrent insert/delete mix has no local oracle)
    expect: bool | None = None
    #: issuing process (sim workload only; mesh ops go round-robin)
    pid: int = 0


class OpRecord(NamedTuple):
    index: int
    kind: str
    due: float
    #: when the generator handed the op to the event loop
    released: float
    start: float
    end: float
    ok: bool

    @property
    def latency(self) -> float:
        """Client-observed latency *from the due time*: a stall makes the
        requests queued behind it late, and they count it."""
        return self.end - self.due

    @property
    def lateness(self) -> float:
        """How late the *generator* ran: waiting for a busy connection or
        a stalled loop after the release is the system's doing."""
        return self.released - self.due


def preload_values(count: int) -> list[int]:
    return [PRELOAD_BASE + i for i in range(count)]


def warmup_ops(count: int) -> list[Op]:
    """Uncounted ops in the timed mix; the queries ask for values nobody
    inserts, so any connection can answer them."""
    return [
        Op("contains", -(WARMUP_BASE + i), False) if i % QUERY_EVERY == QUERY_EVERY - 1
        else Op("insert", WARMUP_BASE + i)
        for i in range(count)
    ]


def mesh_ops(seed: int, count: int, lanes: int) -> list[Op]:
    """The timed op stream of a mesh workload.

    Op ``i`` travels on connection ``i % lanes``.  A ``contains`` asks
    either for a value the *same* connection inserted earlier (that
    request completed before this one is sent, and updates apply locally
    before the 200, so the answer must be True) or for a value nobody
    inserts (must be False) — every query output is checkable.
    """
    rng = random.Random(seed)
    values = rng.sample(STREAM_RANGE, count)
    inserted: list[list[int]] = [[] for _ in range(lanes)]
    ops: list[Op] = []
    for i, value in enumerate(values):
        lane = i % lanes
        if i % QUERY_EVERY == QUERY_EVERY - 1:
            if inserted[lane] and rng.random() < 0.5:
                ops.append(Op("contains", rng.choice(inserted[lane]), True))
            else:
                ops.append(Op("contains", -value, False))
        else:
            inserted[lane].append(value)
            ops.append(Op("insert", value))
    return ops


def sim_ops(seed: int, count: int, *, space: int = 3000, pids: int = 3) -> list[Op]:
    """The sim workload's stream: updates 80 % insert / 20 % delete over
    a small value space (so deletes hit), every fifth op a ``contains``,
    each op at a seeded process."""
    rng = random.Random(seed)
    ops: list[Op] = []
    for i in range(count):
        pid, value = rng.randrange(pids), rng.randrange(space)
        if i % QUERY_EVERY == QUERY_EVERY - 1:
            ops.append(Op("contains", value, None, pid))
        else:
            kind = "insert" if rng.random() < 0.8 else "delete"
            ops.append(Op(kind, value, None, pid))
    return ops


def schedule(count: int, rate: float) -> list[float]:
    """Fixed-interval send offsets (seconds from the loop's start)."""
    return [i / rate for i in range(count)]


async def issue(client: Any, op: Op) -> bool:
    """Send one op over ``client`` (an ``HttpClient``); True when it was
    answered 200 with the expected output.  Non-200 raises in the client."""
    if op.kind == "contains":
        output = await client.query("contains", op.value)
        return output is op.expect if op.expect is not None else isinstance(output, bool)
    await client.update(op.kind, op.value)
    return True


class Ticker(threading.Thread):
    """Releases op ``i`` onto the event loop at its due time.

    ``asyncio.sleep`` rounds every timeout up to a whole millisecond
    (the selector's resolution), which would add ~0.5 ms of generator
    lateness to a ~0.3 ms request.  A thread in ``time.sleep`` wakes
    within tens of microseconds and costs no CPU while it waits, so the
    open loop keeps its schedule without spinning on the loop it measures.

    Being awake at every window boundary anyway, it also reads the
    process CPU clock there (``cpu_marks``).
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        due: Sequence[float],
        release: Callable[[int], None],
        window_ops: int,
    ) -> None:
        super().__init__(name="ledger-ticker", daemon=True)
        self._loop = loop
        self._due = due
        self._release = release
        self._window_ops = window_ops
        self._halt = threading.Event()
        #: release time of each op (written here, read after ``join``)
        self.released = [0.0] * len(due)
        #: ``time.process_time()`` at the first release of each window
        self.cpu_marks: list[float] = []

    def run(self) -> None:
        for i, at in enumerate(self._due):
            delay = at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if self._halt.is_set():
                return
            if i % self._window_ops == 0:
                self.cpu_marks.append(time.process_time())
            self.released[i] = time.perf_counter()
            try:
                self._loop.call_soon_threadsafe(self._release, i)
            except RuntimeError:  # loop closed under us: the run is over
                return

    def halt(self) -> None:
        self._halt.set()


class LoopResult(NamedTuple):
    records: list[OpRecord]
    #: ops per one-second window of the schedule
    window_ops: int
    #: process CPU seconds consumed in each window, per op due in it
    window_cpu_per_op: list[float]

    def window_medians(self, kinds: tuple[str, ...]) -> list[float]:
        """Median latency (seconds) of the answered ops of ``kinds`` in
        each window that has any."""
        buckets: dict[int, list[float]] = {}
        for r in self.records:
            if r.ok and r.kind in kinds:
                buckets.setdefault(r.index // self.window_ops, []).append(r.latency)
        return [median(buckets[w]) for w in sorted(buckets)]


async def open_loop(
    clients: Sequence[Any],
    ops: Sequence[Op],
    rate: float,
    on_done: Callable[[OpRecord], None] | None = None,
    *,
    lead: float = 0.05,
) -> LoopResult:
    """Run ``ops`` at ``rate`` per second over ``clients`` (one request in
    flight per connection, op ``i`` on connection ``i % len(clients)``).

    Open loop: an op becomes due on the fixed schedule whether or not the
    connection is free, and is timed from that due time.
    """
    loop = asyncio.get_running_loop()
    lanes = len(clients)
    queues: list[asyncio.Queue[int]] = [asyncio.Queue() for _ in clients]
    origin = time.perf_counter() + lead
    due = [origin + offset for offset in schedule(len(ops), rate)]
    records: list[OpRecord | None] = [None] * len(ops)
    window_ops = max(1, int(rate))

    async def lane(k: int) -> None:
        for _ in range(k, len(ops), lanes):
            i = await queues[k].get()
            op = ops[i]
            start = time.perf_counter()
            try:
                ok = await issue(clients[k], op)
            except (RuntimeError, OSError, ValueError, asyncio.IncompleteReadError):
                ok = False
            record = OpRecord(
                i, op.kind, due[i], ticker.released[i], start, time.perf_counter(), ok
            )
            records[i] = record
            if on_done is not None:
                on_done(record)

    ticker = Ticker(loop, due, lambda i: queues[i % lanes].put_nowait(i), window_ops)
    ticker.start()
    try:
        await asyncio.gather(*(lane(k) for k in range(lanes)))
    finally:
        ticker.halt()
        ticker.join()
    marks = [*ticker.cpu_marks, time.process_time()]
    sizes = [min(window_ops, len(ops) - start) for start in range(0, len(ops), window_ops)]
    return LoopResult(
        [r for r in records if r is not None], window_ops,
        [(b - a) / size for a, b, size in zip(marks, marks[1:], sizes)],
    )
