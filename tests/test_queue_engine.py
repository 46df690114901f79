"""Differential test of the link-queue engine against the solver it replaced.

`tcpsbench.transport._run` solves an uncapped batch with
whole-array sweeps, index rounds and a walk over each busy period still
moving after `transport.ROUNDS` rounds; `tests/queue_oracle.py` holds the
index rounds and sequential loop it replaced, and the per-packet queue
before them. On batches that load a link from a tenth to five times its
rate, with mixed sizes, packets that arrive together, an uncapped
transmitter still busy from earlier packets, busy periods of more than
10 000 packets and periods that end exactly as the next packet arrives,
`carry` must give the oracle queue's `admit` arrivals, called one packet at
a time, and `_run` the oracle's departures, bit for bit, and each must
return the `free_at` the oracle queue is left with. A capped batch starts
at an idle transmitter, as a cap counts only the packets of the batch it
is carrying.
"""

import math
from collections import Counter
from random import Random

import numpy as np

import queue_oracle
from tcpsbench import transport
from tcpsbench.transport import ROUNDS, carry, serialization_ms


def _check(args, sends, sizes, earlier=()):
    """Run one batch through the oracle queue's admit() one packet at a
    time, carry(), _run() and the oracle's run, each from a transmitter
    after the same earlier packets (uncapped only: admitted by the oracle
    queue, carried as one batch for the others), and require the same times
    (repr) and the same final free_at. Returns the lengths of the batch's
    busy periods, as admit() saw them."""
    assert not earlier or args[2] is None
    bandwidth_bps, delay_ms, cap = args
    one = queue_oracle.PacketQueue(*args)
    for t, size_b in earlier:
        one.admit(t, size_b)
    start = one.free_at  # the oracle run's transmitter
    free_at = 0.0  # carry's and _run's
    if earlier:
        times, sizes_b = np.array(earlier).T
        free_at = carry(times, serialization_ms(sizes_b, bandwidth_bps))[1]
    periods = []
    want = []
    for s, size_b in zip(sends.tolist(), sizes.tolist()):
        if one.free_at > s and periods:
            periods[-1] += 1
        else:
            periods.append(1)
        want.append(one.admit(s, size_b))
    uniform = len(set(sizes.tolist())) == 1
    ser = serialization_ms(int(sizes[0]) if uniform else sizes, bandwidth_bps)
    got, batch = carry(sends, ser, free_at, cap)
    assert repr((got + delay_ms).tolist()) == repr([math.nan if w is None else w for w in want])
    ser = np.broadcast_to(ser, sends.shape)
    deps, raw = transport._run(sends, ser, sends + ser, free_at, cap)
    want_deps, old = queue_oracle.run(start, cap, sends, ser, sends + ser)
    assert repr(deps.tolist()) == repr(want_deps.tolist())
    assert all(free == one.free_at for free in (batch, raw, old))
    return periods


def _arrivals(rng, sizes, bandwidth_bps, load, together=0.1):
    """Sorted arrival times at `load` times the link rate on average, a
    share `together` of them at the instant of the one before."""
    gap = float(np.mean(sizes)) * 8.0 / bandwidth_bps * 1000.0 / load
    return np.add.accumulate([0.0 if rng.random() < together else rng.uniform(0.0, 2 * gap)
                              for _ in sizes])


def test_loads_from_a_tenth_to_five_times_the_rate():
    """Random batches at loads from 0.1 to 5 times the link rate, of one
    size or mixed sizes, some packets arriving together, uncapped and under
    caps 1, 2 and 4, the uncapped ones some after earlier packets. Some
    uncapped busy periods outlast the rounds, so the walk settles them."""
    rng = Random(19)
    seen = Counter()
    for case in range(400):
        cap = rng.choice((None, None, None, 1, 2, 4))
        args = (rng.choice((1e5, 1e6, 1e7)), rng.choice((0.0, 0.5)), cap)
        pool = rng.choice(((64,), (32, 64, 200, 1250)))
        sizes = np.array([rng.choice(pool) for _ in range(rng.randint(1, 400))])
        sends = _arrivals(rng, sizes, args[0], rng.uniform(0.1, 5.0))
        earlier = [(-rng.uniform(0.0, 5.0), 1250) for _ in range(rng.randint(0, 2))]
        earlier.sort()
        if cap is not None:
            earlier = []  # a capped batch starts at an idle transmitter
        try:
            periods = _check(args, sends, sizes, earlier)
        except AssertionError:
            raise AssertionError(f"case {case}") from None
        if cap is None:
            seen["walked"] += max(periods) > ROUNDS + 1
            seen["settled in rounds"] += 1 < max(periods) <= ROUNDS
    assert seen["walked"] >= 20 and seen["settled in rounds"] >= 20, seen


def test_a_carried_transmitter():
    """An uncapped transmitter is still busy from earlier packets when the
    batch starts, so its first packets wait for the carried free_at; a
    capped batch starts at an idle transmitter."""
    rng = Random(7)
    waited = 0
    for case in range(100):
        args = (1e6, 0.0, rng.choice((None, None, 3)))
        earlier = [(0.0, 1250) for _ in range(rng.randint(1, 40))]  # 10 ms each on the wire
        sizes = np.array([rng.choice((32, 64, 1250)) for _ in range(rng.randint(1, 300))])
        sends = rng.uniform(0.0, 20.0) + _arrivals(rng, sizes, args[0], rng.uniform(0.1, 3.0))
        if args[2] is not None:
            earlier = []  # a capped batch starts at an idle transmitter
        queue = queue_oracle.PacketQueue(*args)
        for t, size_b in earlier:
            queue.admit(t, size_b)
        waited += queue.free_at > sends[0]
        try:
            _check(args, sends, sizes, earlier)
        except AssertionError:
            raise AssertionError(f"case {case}") from None
    assert waited >= 50, waited


def test_several_long_busy_periods_in_one_batch():
    """One batch holds busy periods of more than 10 000 packets, periods a
    few windows long and short ones between them, with mixed sizes."""
    rng = Random(11)
    bandwidth_bps = 1e6
    parts, start = [], 0.0
    for n, load in ((12_000, 1.5), (50, 0.2), (300, 2.0), (15_000, 1.2), (40, 3.0), (2_000, 0.5)):
        sizes = np.array([rng.choice((64, 200, 1250)) for _ in range(n)])
        sends = start + _arrivals(rng, sizes, bandwidth_bps, load, together=0.05)
        parts.append((sends, sizes))
        # the next part starts after this one has drained
        start = float(sends[-1]) + float(sizes.sum()) * 8.0 / bandwidth_bps * 1000.0 + 1.0
    sends = np.concatenate([s for s, _ in parts])
    sizes = np.concatenate([b for _, b in parts])
    _check((bandwidth_bps, 0.25, 4), sends, sizes)
    periods = _check((bandwidth_bps, 0.25, None), sends, sizes)
    assert sum(p > 10_000 for p in periods) >= 2, sorted(periods)[-5:]
    assert sum(2 * ROUNDS < p < 10_000 for p in periods) >= 1, sorted(periods)[-5:]


def test_a_period_that_ends_as_the_next_packet_arrives():
    """A packet arrives at exactly the departure of the one before it,
    after a busy period longer than the rounds: the walk ends that period
    there, and the packets after it, busy again, still settle right. The
    period lengths step across the walk's first windows."""
    rng = Random(5)
    bandwidth_bps = 1e6  # 32 bytes take 0.256 ms on the wire

    def busy(start, n):  # every gap shorter than any packet's time on the wire
        return start + np.add.accumulate([0.0] + [rng.uniform(0.0, 0.25) for _ in range(n - 1)])

    lengths = list(range(ROUNDS, 8 * ROUNDS + 2)) + [1000, 5000]
    for length in lengths:
        sizes = np.array([rng.choice((32, 64, 1250)) for _ in range(length + 200)])
        head = busy(0.0, length)
        ref = queue_oracle.PacketQueue(bandwidth_bps)
        for s, size_b in zip(head.tolist(), sizes.tolist()):
            ref.admit(s, size_b)
        sends = np.concatenate((head, busy(ref.free_at, 200)))  # the tail starts at D_{length-1}
        try:
            periods = _check((bandwidth_bps, 0.0, None), sends, sizes)
        except AssertionError:
            raise AssertionError(f"length {length}") from None
        assert periods[:2] == [length, 200], (length, periods)
