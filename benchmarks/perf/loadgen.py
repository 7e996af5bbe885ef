"""Open-loop load for the ``serve-wal`` workload.

One client process, one asyncio thread, a few pipelined protocol
connections.  Every connection sends on a fixed schedule -- line ``k`` is
*due* at ``t0 + offset + k * period`` -- whether or not earlier replies have
come back, the way independent users arrive.  Each request is timed from
its due time, not from when the client got round to sending it, so a
server stall is charged to every request that fell due during it.
``repro.serving.LoadGenerator`` times from the actual send and waits for
each reply before sending the next line, which hides exactly those stalls;
that is why the benchmark brings its own client.

Replies on one connection come back in request order (the TCP transport
answers one line at a time), so a FIFO of due times pairs each reply with
its request.
"""

from __future__ import annotations

import asyncio
import json
import math
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

#: Every ``SNAPSHOT_EVERY``-th line of a connection is a ``snapshot`` read.
SNAPSHOT_EVERY = 50

#: The step's latency limit on ack p99 (refused requests count as missing it).
SLO_P99_MS = 10.0
#: Largest share of refused or failed arrivals a step may have and pass.
SLO_REFUSED_FRAC = 0.001
#: A step has a growing backlog when its last second's ack p50 exceeds the
#: first second's by more than this factor.
BACKLOG_FACTOR = 2.0


class Ledger:
    """Pairs replies with requests and times each from its due time.

    Args:
        clock: Monotonic clock in seconds; injectable so the timing rule
            can be checked without a network or real waiting.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._outstanding: deque[tuple[float, str]] = deque()
        #: ``(kind, due, latency_s, status)`` per answered request.
        self.samples: list[tuple[str, float, float, str]] = []
        self.lag_max = 0.0

    def sent(self, due: float, kind: str) -> None:
        """Record that the request due at ``due`` has just been written."""
        self.lag_max = max(self.lag_max, self.clock() - due)
        self._outstanding.append((due, kind))

    def replied(self, status: str) -> None:
        """Record the reply to the oldest outstanding request."""
        due, kind = self._outstanding.popleft()
        self.samples.append((kind, due, self.clock() - due, status))


def make_lines(seed: int, step: int, conn: int, count: int) -> list[tuple[str, bytes]]:
    """One connection's ``(kind, line)`` schedule for one ladder step.

    Arrivals are short jobs (durations 1-10 trace units, one arrival per
    unit), so only a handful of items are ever active and first-fit
    placement stays cheap; the work is in the serving path.
    """
    rng = random.Random(f"{seed}/{step}/{conn}")
    lines: list[tuple[str, bytes]] = []
    for k in range(count):
        if k % SNAPSHOT_EVERY == SNAPSHOT_EVERY - 1:
            lines.append(("snapshot", b"snapshot\n"))
            continue
        arrival = float(k)
        record = {
            "id": k,
            "size": round(rng.uniform(0.05, 0.5), 6),
            "arrival": arrival,
            "departure": round(arrival + rng.uniform(1.0, 10.0), 6),
        }
        lines.append(("arrival", (json.dumps(record, separators=(",", ":")) + "\n").encode()))
    return lines


def _status(raw: bytes) -> str:
    try:
        return str(json.loads(raw).get("status", "invalid"))
    except (ValueError, AttributeError):
        return "invalid"


async def _drive(
    host: str,
    port: int,
    tenant: str,
    lines: list[tuple[str, bytes]],
    start: float,
    period: float,
    ledger: Ledger,
) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(f"hello {tenant}\n".encode())
        await writer.drain()
        await reader.readline()

        async def send() -> None:
            for k, (kind, payload) in enumerate(lines):
                due = start + k * period
                delay = due - ledger.clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                writer.write(payload)
                ledger.sent(due, kind)
                await writer.drain()

        async def receive() -> None:
            for _ in lines:
                raw = await reader.readline()
                if not raw:
                    raise ConnectionError(f"server closed the connection of {tenant}")
                ledger.replied(_status(raw))

        await asyncio.gather(send(), receive())
        writer.write(b"bye\n")
        await writer.drain()
        await reader.readline()
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


@dataclass
class StepResult:
    """One ladder step as the client saw it."""

    rate: float
    samples: list[tuple[str, float, float, str]] = field(default_factory=list)
    lag_max_s: float = 0.0

    def arrivals(self) -> list[tuple[str, float, float, str]]:
        return [s for s in self.samples if s[0] == "arrival"]

    @property
    def ok(self) -> int:
        return sum(1 for s in self.arrivals() if s[3] == "ok")

    @property
    def refused(self) -> int:
        return sum(1 for s in self.arrivals() if s[3] != "ok")

    def ack_ms(self) -> list[float]:
        """Arrival latencies in ms, refused or failed ones as infinity."""
        return [s[2] * 1e3 if s[3] == "ok" else math.inf for s in self.arrivals()]

    def snapshot_ms(self) -> list[float]:
        return [s[2] * 1e3 for s in self.samples if s[0] == "snapshot" and s[3] == "snapshot"]

    def failed_snapshots(self) -> int:
        return sum(1 for s in self.samples if s[0] == "snapshot" and s[3] != "snapshot")

    def backlog_growing(self) -> bool:
        """Last second's ack p50 above ``BACKLOG_FACTOR`` x the first second's."""
        arrivals = self.arrivals()
        if not arrivals:
            return False
        t0 = min(s[1] for s in arrivals)
        t1 = max(s[1] for s in arrivals)
        first = [s[2] if s[3] == "ok" else math.inf for s in arrivals if s[1] < t0 + 1.0]
        last = [s[2] if s[3] == "ok" else math.inf for s in arrivals if s[1] > t1 - 1.0]
        return quantile(last, 0.5) > BACKLOG_FACTOR * quantile(first, 0.5)

    def meets_slo(self) -> bool:
        acks = self.ack_ms()
        if not acks:
            return False
        return (
            quantile(acks, 0.99) <= SLO_P99_MS
            and self.refused <= SLO_REFUSED_FRAC * len(acks)
            and not self.backlog_growing()
        )


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (``inf`` entries sort last); ``nan`` when empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


async def _saturate(
    host: str, port: int, tenant: str, lines: list[bytes], window: int
) -> int:
    reader, writer = await asyncio.open_connection(host, port)
    acked = 0
    try:
        writer.write(f"hello {tenant}\n".encode())
        await writer.drain()
        await reader.readline()
        # Refill in chunks once half the window is answered: one write per
        # chunk keeps the client's per-line cost well below the server's.
        outstanding = 0
        refill = asyncio.Event()
        refill.set()

        async def send() -> None:
            nonlocal outstanding
            sent = 0
            while sent < len(lines):
                await refill.wait()
                chunk = lines[sent : sent + window - outstanding]
                writer.write(b"".join(chunk))
                sent += len(chunk)
                outstanding += len(chunk)
                refill.clear()
                await writer.drain()

        async def receive() -> None:
            nonlocal acked, outstanding
            for _ in lines:
                raw = await reader.readline()
                if not raw:
                    raise ConnectionError(f"server closed the connection of {tenant}")
                outstanding -= 1
                if outstanding <= window // 2:
                    refill.set()
                acked += b'"status":"ok"' in raw

        await asyncio.gather(send(), receive())
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return acked


async def run_saturation(
    host: str,
    port: int,
    *,
    per_connection: int,
    seed: int,
    tag: str = "burst",
    connections: int = 2,
    window: int = 64,
) -> tuple[int, int, float]:
    """Closed-loop burst: each connection keeps ``window`` arrivals in flight.

    Returns ``(offered, acked, wall_s)``.  ``window`` x ``connections`` stays
    well under the server's per-tenant queue limit, so a healthy server never
    answers ``busy`` and the achieved rate is its ack capacity.
    """
    schedules = [
        [line for kind, line in make_lines(seed, -1, c, per_connection) if kind == "arrival"]
        for c in range(connections)
    ]
    began = time.perf_counter()
    acked = await asyncio.gather(
        *(
            _saturate(host, port, f"bench-s{seed}-{tag}-c{c}", schedules[c], window)
            for c in range(connections)
        )
    )
    return sum(len(s) for s in schedules), sum(acked), time.perf_counter() - began


async def run_step(
    host: str,
    port: int,
    *,
    rate: float,
    seconds: float,
    seed: int,
    step: int,
    connections: int = 2,
    clock: Callable[[], float] = time.perf_counter,
) -> StepResult:
    """Offer ``rate`` lines/s for ``seconds`` over fresh tenants; wait for all replies."""
    per_conn = rate / connections
    count = max(1, int(per_conn * seconds))
    schedules = [make_lines(seed, step, c, count) for c in range(connections)]
    ledgers = [Ledger(clock) for _ in range(connections)]
    period = 1.0 / per_conn
    # Lead time covers connecting and the hello round trip; connections are
    # staggered so the aggregate arrival stream is evenly spaced.
    start = clock() + 0.2
    await asyncio.gather(
        *(
            _drive(
                host,
                port,
                f"bench-s{seed}-r{int(rate)}-c{c}",
                schedules[c],
                start + c * period / connections,
                period,
                ledgers[c],
            )
            for c in range(connections)
        )
    )
    result = StepResult(rate=rate)
    for ledger in ledgers:
        result.samples.extend(ledger.samples)
        result.lag_max_s = max(result.lag_max_s, ledger.lag_max)
    return result
