"""The link-queue solvers that `tcpsbench.transport.carry` replaced, kept
as its oracles.

`PacketQueue.admit` takes one packet at a time and keeps the departures
still in flight between packets, as the event-driven channels need.
`run` is Lindley's FIFO recurrence d_k = max(a_k, d_{k-1}) + s_k over a
time-sorted batch, with `admit`'s arithmetic and cap rule, a cap counting
only the batch's own packets: uncapped, numpy rounds that recompute only
the packets whose predecessor changed, then the sequential loop for
whatever is still unsettled after `ROUNDS` rounds; capped, the sequential
loop from the start. `tests/test_queue_engine.py` and
`tests/test_transport.py` match both against the engine bit for bit.
"""

import math

import numpy as np

from tcpsbench.transport import serialization_ms

ROUNDS = 32  # numpy rounds before the unsettled suffix goes through the loop


class PacketQueue:
    """A link queue that admits one packet at a time, with the time its
    transmitter frees up and the in-flight departure times a capacity cap
    counts."""

    def __init__(self, bandwidth_bps: float, delay_ms: float = 0.0,
                 cap: int | None = None) -> None:
        self.bandwidth_bps = bandwidth_bps
        self.delay_ms = delay_ms
        self.cap = cap
        self.free_at = 0.0
        self.departures: list[float] = []

    def admit(self, now: float, size_b: int) -> float | None:
        """Returns the arrival time at the far end, or None on tail drop."""
        if self.cap is not None:
            self.departures = [d for d in self.departures if d > now]
            if len(self.departures) >= self.cap:
                return None
        start = self.free_at if self.free_at > now else now
        finish = start + serialization_ms(size_b, self.bandwidth_bps)
        self.free_at = finish
        if self.cap is not None:
            self.departures.append(finish)
        return finish + self.delay_ms


def run(free_at, cap, a, ser, done):
    """The departures of a time-sorted batch (done = a + ser) from a
    transmitter busy until free_at, NaN for a tail drop, and the free_at
    admit() would leave. Accepted departures never decrease, so "at least
    cap in flight at now" is deps[-cap] > now."""
    n = len(a)
    d = np.concatenate(([free_at], done))  # d[k + 1]: departure of packet k
    k0 = 0
    if cap is None and n:
        new = np.maximum(a, d[:-1]) + ser
        moved = np.flatnonzero(new != d[1:])
        d[1:] = new
        todo = moved[moved < n - 1] + 1
        for _ in range(ROUNDS - 1):
            if not len(todo):
                break
            new = np.maximum(a[todo], d[todo]) + ser[todo]
            moved = todo[new != d[todo + 1]]
            d[todo + 1] = new
            todo = moved[moved < n - 1] + 1
        k0 = int(todo[0]) if len(todo) else n
    free, deps, out = float(d[k0]), [], []
    for now, s in zip(a[k0:].tolist(), ser[k0:].tolist()):
        if cap is not None and len(deps) >= cap and (cap == 0 or deps[-cap] > now):
            out.append(math.nan)
            continue
        start = free if free > now else now
        free = start + s
        out.append(free)
        deps.append(free)
    d[k0 + 1:] = out
    return d[1:], free
