"""The per-channel batch carry that `tcpsbench.transport.ImpairedChannel.round_trips`
replaced, kept as its oracle.

`carry` decides one direction of one impaired channel as a batch: drops
from drop_seq and one uniform per packet, the transmitter's queue, then
send + (latency + jitter) and the FIFO clamp, reading the channel's own
streams and leaving its state as the per-packet transit_time would.
`round_trip` is the round trip built from two of them, the far end
answering the commands that `picks` takes in delivery order. `round_trips`
runs the round trips of a whole batch of channels as (channels x sends)
blocks; `tests/test_round_trips.py` matches the two bit for bit.
"""

import numpy as np

from tcpsbench.transport import BACKWARD, FORWARD


def carry(channel, direction, send_times, size_b):
    """transit_time over a time-sorted batch of sends, in one call with the
    same arithmetic, draws and state changes: the delivery times, NaN where
    a packet is dropped. The delivered packets count at once."""
    link = channel._links[direction]
    p = link.params
    n = len(send_times)
    first = link.send_count
    link.send_count += n
    listed = [s - first for s in p.drop_seq if first <= s < first + n]
    t, kept = send_times, None  # None: no packet dropped
    if listed or link.drops is not None:
        dropped = np.zeros(n, dtype=bool)
        dropped[listed] = True
        if link.drops is not None:
            dropped |= link.drops.take(n) < p.drop_prob
        kept = np.flatnonzero(~dropped)
        t = send_times[kept]
    if link.queue is not None:
        t = link.queue.carry(t, link.queue.serialization_ms(size_b))
    delay = p.latency_ms
    if link.jitter is not None:
        delay = delay + link.jitter.take(len(t))
    t = t + delay
    if len(t):
        if p.fifo:
            t = np.maximum(np.maximum.accumulate(t), link.last_delivery)
        link.last_delivery = float(t[-1])
    stats = channel.stats[direction]
    stats.sent += n
    stats.dropped += n - len(t)
    stats.delivered += len(t)
    if kept is None:
        return t
    out = np.full(n, np.nan)
    out[kept] = t
    return out


def _delivery_order(arrivals: np.ndarray) -> np.ndarray:
    """Indices of the delivered packets (arrival not NaN) in the clock's
    delivery order: by arrival time, ties in send order."""
    kept = np.flatnonzero(arrivals == arrivals)  # NaN is unequal to itself
    return kept[np.argsort(arrivals[kept], kind="stable")]


def _newest_first_seen(order: np.ndarray) -> np.ndarray:
    """Mask of the deliveries newer than every one before them (the rest
    are stale); send index stands for sequence number."""
    return order == np.maximum.accumulate(order)


def picks(arrivals: np.ndarray) -> np.ndarray:
    """Mask of the packets taken in delivery order, each newer than every
    one delivered before it."""
    order = _delivery_order(arrivals)
    mask = np.zeros(len(arrivals), dtype=bool)
    mask[order[_newest_first_seen(order)]] = True
    return mask


def round_trip(channel, sends, size_b, drain_at):
    """SimChannel.round_trip as one carry per direction: the commands'
    arrival times, the picks and the answers by command column."""
    fwd = carry(channel, FORWARD, sends, size_b)
    picked = picks(fwd)
    bwd = np.full(len(sends), np.nan)
    bwd[picked] = carry(channel, BACKWARD, fwd[picked], size_b)
    return fwd, picked, bwd
