"""The link-queue solver that `tcpsbench.transport.LinkQueue.run` replaced,
kept as its oracle.

`run` is Lindley's FIFO recurrence d_k = max(a_k, d_{k-1}) + s_k over a
time-sorted batch, with `LinkQueue.admit`'s arithmetic and cap rule:
uncapped, numpy rounds that recompute only the packets whose predecessor
changed, then the sequential loop for whatever is still unsettled after
`ROUNDS` rounds; capped, the sequential loop from the start.
`tests/test_queue_engine.py` matches it, and `admit` called one packet at
a time, against the engine bit for bit.
"""

import math

import numpy as np

ROUNDS = 32  # numpy rounds before the unsettled suffix goes through the loop


def run(queue, a, ser, done):
    """The departures of a time-sorted batch (done = a + ser), NaN for a
    tail drop, leaving queue.free_at and queue.departures as admit() would.
    Accepted departures never decrease, so "at least cap in flight at now"
    is deps[-cap] > now, and the in-flight list is filtered once, at the
    end, to what admit() would leave."""
    n = len(a)
    d = np.concatenate(([queue.free_at], done))  # d[k + 1]: departure of packet k
    k0 = 0
    if queue.cap is None and n:
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
    free, cap, deps = float(d[k0]), queue.cap, list(queue.departures)
    out, now, taken = [], None, False
    for now, s in zip(a[k0:].tolist(), ser[k0:].tolist()):
        if cap is not None and len(deps) >= cap and (cap == 0 or deps[-cap] > now):
            out.append(math.nan)
            taken = False
            continue
        start = free if free > now else now
        free = start + s
        out.append(free)
        taken = True
        if cap is not None:
            deps.append(free)
    if cap is not None and now is not None:
        # admit() filters before it appends, so the last accepted one stays
        deps = [x for x in deps[:len(deps) - taken] if x > now] + deps[len(deps) - taken:]
    d[k0 + 1:] = out
    queue.free_at, queue.departures = free, deps
    return d[1:]
