"""The per-channel batch carry that `tcpsbench.transport.ImpairedBlock`
replaced, kept as its oracle.

`carry` decides one direction of one impaired channel as a batch: drops
from drop_seq and one uniform per packet, the transmitter's queue, then
send + (latency + jitter) and the FIFO clamp, reading the channel's
streams through the per-value stdlib loops of `tests/draws_oracle.py` and
leaving its state as the per-packet transit_time would.
`round_trip` is the round trip built from two of them, the far end
answering the commands that `picks` takes in delivery order. An
ImpairedBlock runs the round trips of a whole batch of trial seeds as
(rows x sends) blocks; `tests/test_block.py` and `tests/test_round_trips.py`
match the two bit for bit.
"""

from random import Random

import numpy as np

from draws_oracle import drop_draws, jitter_draws
from tcpsbench import transport
from tcpsbench.transport import BACKWARD, FORWARD


def _stream(seed, pos, n, jitter=None):
    """Values pos .. pos + n of a stream, from the per-value stdlib loops:
    drop uniforms (jitter None) or jitter values."""
    rng = Random(seed)
    values = drop_draws(rng, pos + n) if jitter is None else jitter_draws(jitter, rng, pos + n)
    return np.array(values[pos:])


def carry(channel, direction, send_times, size_b):
    """transit_time over a time-sorted batch of sends, in one call with the
    same arithmetic, draws and state changes: the delivery times, NaN where
    a packet is dropped. The delivered packets count at once. A channel of
    seed s draws its forward drops from Random(4s) and its forward jitter
    from Random(4s + 1), and its backward streams from 4s + 2 and 4s + 3;
    the drop stream is read from the packets sent so far, the jitter stream
    from the packets kept so far."""
    block, d = channel.block, (0 if direction == FORWARD else 1)
    p = block.params[d]
    seed = 4 * channel.seed + 2 * d
    n = len(send_times)
    first = int(block.sent[d, 0])
    block.sent[d, 0] += n
    listed = [s - first for s in p.drop_seq if first <= s < first + n]
    t, kept = send_times, None  # None: no packet dropped
    if listed or p.drop_prob > 0.0:
        dropped = np.zeros(n, dtype=bool)
        dropped[listed] = True
        if p.drop_prob > 0.0:
            dropped |= _stream(seed, first, n) < p.drop_prob
        kept = np.flatnonzero(~dropped)
        t = send_times[kept]
    if p.bandwidth_bps > 0.0:
        ser = transport.serialization_ms(size_b, p.bandwidth_bps)
        t, block.free_at[d, 0] = transport.carry(t, ser, block.free_at.item(d, 0))
    delay = p.latency_ms
    if p.jitter.kind != "none":
        delay = delay + _stream(seed + 1, int(block.kept[d, 0]), len(t), p.jitter)
    block.kept[d, 0] += len(t)
    t = t + delay
    if len(t):
        if p.fifo:
            t = np.maximum(np.maximum.accumulate(t), block.last[d, 0])
        block.last[d, 0] = float(t[-1])
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
