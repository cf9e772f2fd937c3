"""Load generators: an open loop on a schedule, a closed loop of callers.

Both run on the caller's asyncio loop and stamp :class:`~common.Op`
times from one clock.  In the open loop an operation's latency counts
from its *due* time, not from when a connection became free to send it:
a stall then shows in the latency of every request queued behind it,
instead of silently lowering the offered load (coordinated omission).
"""

import asyncio
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, List, Sequence

import numpy as np

from common import Op

#: ``execute(client, request, op)`` performs one operation, setting
#: ``op.kind``, ``op.user_bytes``, ``op.first_byte`` and ``op.ok``.
Execute = Callable[[object, object, Op], Awaitable[None]]


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: seconds after the start, and what to do."""

    at: float
    request: object


def poisson_times(rng: np.random.Generator, rate: float,
                  seconds: float) -> List[float]:
    """Arrival times of a Poisson process of ``rate`` over ``seconds``,
    conditioned on its expected count.

    Given the count, Poisson arrivals are uniform order statistics; fixing
    the count at ``round(rate * seconds)`` keeps the offered load the same
    from seed to seed while the spacing stays random.
    """
    count = max(1, int(round(rate * seconds)))
    return sorted(float(t) for t in rng.uniform(0.0, seconds, count))


async def open_loop(arrivals: Sequence[Arrival], connections: int,
                    connect: Callable[[], object],
                    execute: Execute) -> List[Op]:
    """Issue ``arrivals`` on schedule over ``connections`` connections.

    ``connect()`` returns an async context manager yielding a client.
    A request whose connection is busy waits for the next free one; its
    wait counts in its latency.
    """
    queue: asyncio.Queue = asyncio.Queue()
    ops: List[Op] = []
    start = time.perf_counter()

    async def generator():
        for arrival in arrivals:
            due = start + arrival.at
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((arrival.request, due, time.perf_counter()))
        for _ in range(connections):
            queue.put_nowait(None)

    async def connection():
        async with connect() as client:
            while True:
                item = await queue.get()
                if item is None:
                    return
                request, due, dispatched = item
                op = Op(kind="", user_bytes=0, due=due,
                        sent=time.perf_counter(), done=0.0,
                        dispatched=dispatched)
                await execute(client, request, op)
                op.done = time.perf_counter()
                ops.append(op)

    await asyncio.gather(generator(),
                         *(connection() for _ in range(connections)))
    return ops


async def closed_loop(callers: int, seconds: float,
                      connect: Callable[[], object],
                      next_request: Callable[[int, int], object],
                      execute: Execute) -> List[Op]:
    """``callers`` clients, each sending its next request only after the
    previous one completed, until ``seconds`` have passed.

    ``next_request(caller, i)`` gives caller's ``i``-th request, or
    ``None`` to stop that caller early.
    """
    ops: List[Op] = []
    stop = time.perf_counter() + seconds

    async def caller(index: int):
        async with connect() as client:
            i = 0
            while time.perf_counter() < stop:
                request = next_request(index, i)
                if request is None:
                    return
                now = time.perf_counter()
                op = Op(kind="", user_bytes=0, due=now, sent=now, done=0.0)
                await execute(client, request, op)
                op.done = time.perf_counter()
                ops.append(op)
                i += 1

    await asyncio.gather(*(caller(i) for i in range(callers)))
    return ops


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    """Popularity of ranks ``0..n-1`` under a Zipf law."""
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    return weights / weights.sum()


def stratified_choice(rng: np.random.Generator, weights: Sequence[float],
                      count: int) -> List[int]:
    """``count`` draws whose per-index totals match ``weights`` as closely
    as whole numbers allow, in a seeded random order.

    Independent draws would let one seed send a third more traffic to the
    largest file than another; fixing the totals keeps the work per run
    steady while the order still varies.
    """
    weights = np.asarray(weights, dtype=float)
    exact = weights / weights.sum() * count
    counts = np.floor(exact).astype(int)
    shortfall = count - int(counts.sum())
    if shortfall:
        order = np.argsort(-(exact - counts), kind="stable")
        counts[order[:shortfall]] += 1
    picks = np.repeat(np.arange(len(weights)), counts)
    rng.shuffle(picks)
    return [int(p) for p in picks]
