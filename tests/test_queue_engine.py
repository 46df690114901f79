"""Differential test of the link-queue engine against the solver it replaced.

`tcpsbench.transport.carry` takes its wait test as the first round of
Lindley's recurrence, and `_run` solves an uncapped batch from there with
whole-array sweeps, index rounds and a walk over each busy period still
moving after `transport.ROUNDS` rounds; under a cap it drops from that
solution, running the busy periods in which the cap drops in lockstep,
or in the loop when few are open.
`tests/queue_oracle.py` holds the index rounds and sequential loop it
replaced, and the per-packet queue before them. On batches that load a
link from a tenth to five times its rate, with mixed sizes, packets that
arrive together, an uncapped transmitter still busy from earlier packets,
busy periods of more than 10 000 packets and periods that end exactly as
the next packet arrives, `carry` must give the oracle queue's `admit`
arrivals, called one packet at a time, and `_run` the oracle's
departures, bit for bit, and each must return the `free_at` the oracle
queue is left with. A capped batch starts at an idle transmitter, as a
cap counts only the packets of the batch it is carrying.
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
    d = np.concatenate(([free_at], sends + ser))  # carry's first round: d[k + 1] = a_k + s_k
    deps, raw = transport._run(sends, ser, d, sends < d[:-1], cap)
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


def _tandem(rng, bandwidth_bps, n):
    """Arrivals at a second link of the same rate and delay: the first
    link's departures plus its delay, as a topology's hops give them, so
    that some packets wait for a single ulp."""
    sizes = np.array([rng.choice((32, 64)) for _ in range(n)])
    sends = _arrivals(rng, sizes, bandwidth_bps, rng.uniform(0.5, 1.5))
    first = carry(sends, serialization_ms(sizes, bandwidth_bps))[0] + 1.0
    return first, sizes


def test_the_first_round_is_the_wait_test():
    """carry's wait test is Lindley's first round, handed to _run and
    _lindley: uncapped batches whose first packet arrives before free_at,
    whose arrivals are all tied, of one packet, whose only waiting packet
    is the last, and the 1-ulp waits of tandem links, each against the
    oracle queue and the oracle's run."""
    rng = Random(36)
    seen = Counter()
    for case in range(600):
        kind = case % 5
        bandwidth_bps = rng.choice((1e6, 1e7))
        earlier = []
        if kind == 0:  # the first packet arrives while earlier packets are still on the wire
            sizes = np.array([rng.choice((32, 64, 1250)) for _ in range(rng.randint(1, 60))])
            sends = _arrivals(rng, sizes, bandwidth_bps, rng.uniform(0.1, 2.0))
            earlier = [(-rng.uniform(0.0, 1.0), 1250) for _ in range(rng.randint(1, 3))]
        elif kind == 1:  # every packet at one instant
            sizes = np.array([rng.choice((32, 64)) for _ in range(rng.randint(2, 40))])
            sends = np.full(len(sizes), rng.uniform(0.0, 5.0))
        elif kind == 2:  # one packet
            sizes = np.array([rng.choice((32, 1250))])
            sends = np.array([rng.uniform(0.0, 1.0)])
            earlier = [(0.0, 1250)] if rng.random() < 0.5 else []
        elif kind == 3:  # only the last packet waits
            sizes = np.array([64] * rng.randint(2, 40))
            ser = serialization_ms(64, bandwidth_bps)
            sends = np.add.accumulate([0.0] + [ser * rng.uniform(1.01, 3.0)
                                               for _ in range(len(sizes) - 1)])
            sends[-1] = sends[-2] + ser * rng.uniform(0.0, 0.99)
        else:  # tandem links
            sends, sizes = _tandem(rng, bandwidth_bps, rng.randint(50, 400))
        earlier.sort()
        one = queue_oracle.PacketQueue(bandwidth_bps)
        for t, size_b in earlier:
            one.admit(t, size_b)
        free_at, deps = one.free_at, []
        for s, size_b in zip(sends.tolist(), sizes.tolist()):
            deps.append(one.admit(s, size_b))
        before = np.array([free_at] + deps[:-1])
        waits = sends < before
        try:
            _check((bandwidth_bps, 0.0, None), sends, sizes, earlier)
        except AssertionError:
            raise AssertionError(f"case {case}") from None
        seen["before free_at"] += bool(waits[0]) and kind in (0, 2)
        seen["all tied"] += kind == 1 and len(sizes) > 1
        seen["one packet"] += kind == 2
        seen["only the last waits"] += kind == 3 and bool(waits[-1]) and not waits[:-1].any()
        gap = before - sends
        seen["1-ulp wait"] += kind == 4 and bool(((gap > 0) & (gap <= np.spacing(sends))).any())
    for feature in ("before free_at", "all tied", "one packet", "only the last waits"):
        assert seen[feature] >= 50, seen
    assert seen["1-ulp wait"] >= 10, seen


def _late_periods(sends, ser, cap):
    """The busy periods of the uncapped schedule (the oracle's) in which
    the cap drops a packet, as the lengths from each one's first packet k
    with d_{k-cap} > a_k to its end."""
    d = queue_oracle.run(0.0, None, sends, ser, sends + ser)[0]
    heads = [0] + [k for k in range(1, len(sends)) if sends[k] >= d[k - 1]] + [len(sends)]
    lengths = []
    for lo, hi in zip(heads, heads[1:]):
        late = [k for k in range(max(lo, cap), hi) if d[k - cap] > sends[k]]
        if late:
            lengths.append(hi - late[0])
    return lengths


def test_capped_lockstep_matches_the_loop():
    """Capped batches against the oracle queue's admit() and the oracle's
    loop: caps 0 to 8, packets that arrive together, per-packet sizes,
    loads from a third to over the link rate. Some batches hold at least
    transport.LOCKSTEP_ROWS busy periods in which the cap drops, so their
    rows run in lockstep, the longest rows finishing in the loop; some
    hold fewer, and so run in the loop; and some saturate the link (work
    at least the batch's span), so that a few long busy periods hold most
    of their packets."""
    rng = Random(20)
    seen = Counter()
    for case in range(160):
        cap = case % 9
        bandwidth_bps = rng.choice((1e6, 1e7))
        pool = rng.choice(((64,), (32, 64), (32, 64, 200, 1250)))
        sizes = np.array([rng.choice(pool) for _ in range(rng.randint(1, 3000))])
        load = rng.choice((rng.uniform(0.3, 0.9), rng.uniform(0.9, 1.3)))
        sends = _arrivals(rng, sizes, bandwidth_bps, load, together=rng.choice((0.0, 0.1, 0.3)))
        try:
            _check((bandwidth_bps, 0.0, cap), sends, sizes)
        except AssertionError:
            raise AssertionError(f"case {case}") from None
        ser = serialization_ms(sizes, bandwidth_bps)
        if cap:
            seen["saturating"] += bool(len(sends) > 1 and ser.sum() >= sends[-1] - sends[0])
            rows = _late_periods(sends, ser, cap)
            seen["lockstep"] += len(rows) >= transport.LOCKSTEP_ROWS
            seen["loop"] += 0 < len(rows) < transport.LOCKSTEP_ROWS
            seen["no drop"] += not rows
        seen["tied"] += bool((sends[1:] == sends[:-1]).any())
    for feature in ("lockstep", "loop", "saturating", "no drop"):
        assert seen[feature] >= 10, seen
    assert seen["tied"] >= 50, seen


def test_a_capped_transmitter_busy_before_the_batch():
    """A capped batch whose transmitter is still busy at its first packet
    (free_at after it): the uncapped schedule starts there, and the cap
    counts only the batch's packets, as the oracle's loop does."""
    rng = Random(8)
    for case in range(60):
        cap = rng.randint(1, 6)
        sizes = np.array([rng.choice((32, 64)) for _ in range(rng.randint(1, 2000))])
        sends = _arrivals(rng, sizes, 1e6, rng.uniform(0.5, 1.0))
        ser = serialization_ms(sizes, 1e6)
        free_at = float(sends[0]) + rng.uniform(0.0, 2.0)
        got, free = carry(sends, ser, free_at, cap)
        want, want_free = queue_oracle.run(free_at, cap, sends, ser, sends + ser)
        assert repr(got.tolist()) == repr(want.tolist()), case
        assert free == want_free, case


def test_a_capped_packet_that_arrives_as_the_oldest_leaves():
    """A packet that arrives exactly when the cap-th last accepted one
    leaves finds it gone, in the lockstep rows and in the loop. Times on a
    grid of 0.25 ms with 0.5 ms on the wire are exact, so such ties are
    common; each burst is a busy period of its own, and most batches hold
    more than transport.LOCKSTEP_ROWS of them."""
    rng = Random(12)
    ties = 0
    for case in range(40):
        cap = rng.randint(1, 4)
        sends = []
        for burst in range(rng.choice((10, 60, 120))):
            start = 100.0 * burst
            sends += [start + 0.25 * rng.randint(0, 8) for _ in range(rng.randint(1, 3 * cap + 3))]
        sends = np.sort(np.array(sends))
        ser = np.full(len(sends), 0.5)
        got, free = carry(sends, ser, 0.0, cap)
        want, want_free = queue_oracle.run(0.0, cap, sends, ser, sends + ser)
        assert repr(got.tolist()) == repr(want.tolist()), case
        assert free == want_free, case
        kept = want[want == want]
        ties += len(np.intersect1d(kept, sends))
    assert ties >= 100, ties
