"""Wire codec, link queue and simulated-channel behavior."""

from collections import Counter
from random import Random

import numpy as np
import pytest

from draws_oracle import jitter_draws
from queue_oracle import PacketQueue
from random_topologies import count_waiting_batches
from tcpsbench.clock import EventScheduler
from tcpsbench.experiments import load_experiment
from tcpsbench.netsim import Link, Topology, channel_from_topology
from tcpsbench.transport import (
    BACKWARD,
    FORWARD,
    ChannelClosed,
    ChannelModel,
    ChecksumMismatch,
    DatagramEndpoint,
    ImpairedChannel,
    Jitter,
    KIND_HAPTIC,
    KIND_KINEMATIC,
    LinkParams,
    MIN_PACKET_BYTES,
    ROUNDS,
    Packet,
    PacketTooSmall,
    SocketTimeout,
    TruncatedPacket,
    carry,
    decode,
    encode,
    ideal_model,
    serialization_ms,
)


def random_packet(rng: Random) -> Packet:
    # wire values are fixed-point x1000: build on that grid for exact roundtrips
    return Packet(
        kind=rng.choice((KIND_KINEMATIC, KIND_HAPTIC)),
        seq=rng.randrange(0, 2**32),
        epoch=rng.randrange(0, 2**32),
        x=rng.randrange(-10**7, 10**7) / 1000.0,
        value=rng.randrange(-10**7, 10**7) / 1000.0,
    )


class TestCodec:
    def test_roundtrip_identity(self):
        rng = Random(1)
        for _ in range(200):
            pkt = random_packet(rng)
            assert decode(encode(pkt, 64, rng)) == pkt

    def test_quantization_to_milli_units(self):
        rng = Random(2)
        out = decode(encode(Packet(0, 1, 2, x=1.23456, value=-9.8765), 32, rng))
        assert out.x == pytest.approx(1.235)
        assert out.value == pytest.approx(-9.876)  # round-half-even on x1000 grid

    def test_encoded_length_is_exactly_b(self):
        rng = Random(3)
        pkt = random_packet(rng)
        for size in (32, 256, 1024):
            assert len(encode(pkt, size, rng)) == size

    def test_minimum_size_has_no_padding(self):
        # 28-byte field block + 4-byte checksum fills the 32-byte minimum
        rng = Random(4)
        data = encode(Packet(1, 7, 9, x=1.0, value=2.0), MIN_PACKET_BYTES, rng)
        assert len(data) == 32

    def test_padding_budget(self):
        # B=256 leaves 256 - 28 - 4 = 224 padding bytes
        rng = Random(5)
        data = encode(Packet(0, 0, 0, x=0.0, value=0.0), 256, rng)
        assert len(data) - 28 - 4 == 224

    def test_padding_is_one_randbytes_draw(self):
        for seed, size in ((8, 33), (9, 256), (10, 1024)):
            data = encode(Packet(0, 0, 0, x=0.0, value=0.0), size, Random(seed))
            assert data[28:-4] == Random(seed).randbytes(size - 32)

    def test_too_small_rejected(self):
        with pytest.raises(PacketTooSmall):
            encode(Packet(0, 0, 0, 0.0, 0.0), 31, Random(6))

    def test_truncated_rejected(self):
        with pytest.raises(TruncatedPacket):
            decode(b"\x00" * 10)

    def test_every_single_bit_flip_detected(self):
        rng = Random(7)
        for _ in range(5):
            pkt = random_packet(rng)
            data = encode(pkt, 32, rng)
            for bit in range(len(data) * 8):
                corrupted = bytearray(data)
                corrupted[bit // 8] ^= 1 << (bit % 8)
                with pytest.raises(ChecksumMismatch):
                    decode(bytes(corrupted))


_IMPAIRED = ChannelModel(forward=LinkParams(drop_prob=0.2), backward=LinkParams())


@pytest.mark.parametrize("build", [
    _IMPAIRED.build,
    lambda seed: _IMPAIRED.block([3, seed]),
    lambda seed: ImpairedChannel(_IMPAIRED, seed),
    lambda seed: load_experiment("testbed-overhead-like").channel.factory(seed),
], ids=["build", "block", "ImpairedChannel", "preset-factory"])
def test_negative_seeds_are_refused(build):
    """Random() seeds with abs(): seed -1 would draw seed 1's forward drops."""
    build(0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        build(-1)


def test_a_failed_bind_closes_its_socket(monkeypatch):
    """192.0.2.1 (TEST-NET-1) is never a local address, so bind fails."""
    import socket

    made, make = [], socket.socket

    def tracked(*args):
        made.append(make(*args))
        return made[-1]

    monkeypatch.setattr(socket, "socket", tracked)
    with pytest.raises(OSError):
        DatagramEndpoint(("192.0.2.1", 0))
    assert len(made) == 1 and made[0].fileno() == -1


def test_receive_with_no_peer_times_out():
    endpoint = DatagramEndpoint(("127.0.0.1", 0))
    try:
        with pytest.raises(SocketTimeout, match="no packet within 50"):
            endpoint.recv_packet(50.0)
    finally:
        endpoint.close()


class TestImpairedChannel:
    def transit_times(self, params: LinkParams, n: int, seed: int = 1,
                      size: int = 32, gap: float = 0.1):
        chan = ChannelModel(forward=params, backward=LinkParams()).build(seed)
        out = []
        for i in range(n):
            out.append(chan.transit_time(FORWARD, size, i * gap))
        return out

    def test_pure_latency(self):
        t = self.transit_times(LinkParams(latency_ms=0.5), 1)[0]
        assert t == pytest.approx(0.5)

    def test_serialization_delay(self):
        # 32 bytes at 10 Mbps = 25.6 us on top of the propagation delay
        t = self.transit_times(LinkParams(latency_ms=0.5, bandwidth_bps=1e7), 1)[0]
        assert t == pytest.approx(0.5 + 0.0256)

    def test_serialization_queues_fifo(self):
        # 1 byte at 8 kb/s takes 1 ms on the wire; packets sent together
        # leave the transmitter one after the other
        sched = EventScheduler()
        chan = ChannelModel(forward=LinkParams(latency_ms=0.0, bandwidth_bps=8000.0)).build(1)
        chan.bind(sched)
        arrivals = []
        for k in range(3):
            chan.send(FORWARD, k, 1, lambda p: arrivals.append(sched.now))
        sched.run()
        assert arrivals == [1.0, 2.0, 3.0]

    def test_spaced_sends_match_unqueued_formula(self):
        # When each packet leaves the transmitter before the next is sent,
        # queueing adds no wait: delivery equals
        # now + latency + jitter + size*8/bw, up to float rounding, and
        # exactly so on links without a transmitter (bandwidth 0).
        rng = Random(2024)
        for case in range(200):
            jitter = rng.choice([Jitter.none(), Jitter.uniform(rng.uniform(0.0, 3.0)),
                                 Jitter.truncnorm(rng.uniform(0.0, 1.0), rng.uniform(0.1, 1.0))])
            bandwidth = 0.0 if case % 4 == 0 else rng.uniform(1e4, 1e7)
            params = LinkParams(latency_ms=rng.uniform(0.0, 2.0), jitter=jitter,
                                drop_prob=rng.uniform(0.0, 0.5), bandwidth_bps=bandwidth,
                                fifo=rng.random() < 0.5,
                                drop_seq=frozenset(rng.sample(range(40), 3)))
            sizes = [rng.randint(MIN_PACKET_BYTES, 1500) for _ in range(40)]
            ser_max = 1500 * 8.0 / bandwidth * 1000.0 if bandwidth else 0.0
            sends, now = [], 0.0
            for size in sizes:
                sends.append((now, size))
                now += ser_max + rng.uniform(0.01, 2.0)
            seed = rng.randrange(1000)
            chan = ChannelModel(forward=params).build(seed)
            got = [chan.transit_time(FORWARD, size, t) for t, size in sends]
            want = _unqueued_transit_times(params, sends, seed)
            assert [t is None for t in got] == [t is None for t in want]
            for g, w in zip(got, want):
                if g is not None:
                    assert g == w if bandwidth == 0.0 else abs(g - w) <= 1e-9, (case, g, w)

    def test_drop_all(self):
        assert self.transit_times(LinkParams(drop_prob=1.0), 50) == [None] * 50

    def test_rtt_composition_by_echo(self):
        chan = ideal_model(0.5).build(1)
        t_fwd = chan.transit_time(FORWARD, 32, 0.0)
        t_rtt = chan.transit_time(BACKWARD, 32, t_fwd)
        assert t_rtt == pytest.approx(1.0)

    def test_seed_determinism(self):
        p = LinkParams(jitter=Jitter.uniform(1.0), drop_prob=0.3)
        a = self.transit_times(p, 300, seed=9)
        b = self.transit_times(p, 300, seed=9)
        assert a == b
        c = self.transit_times(p, 300, seed=10)
        assert a != c

    def test_empirical_drop_rate_within_one_percent(self):
        n = 100_000
        times = self.transit_times(LinkParams(drop_prob=0.1), n, seed=123, gap=0.01)
        rate = sum(1 for t in times if t is None) / n
        assert abs(rate - 0.1) <= 0.01

    def test_fifo_never_reorders(self):
        p = LinkParams(latency_ms=0.2, jitter=Jitter.uniform(5.0), fifo=True)
        times = [t for t in self.transit_times(p, 400, seed=3) if t is not None]
        assert all(b >= a for a, b in zip(times, times[1:]))

    def test_non_fifo_with_jitter_reorders(self):
        # uniform jitter above the inter-send gap admits a reordering
        p = LinkParams(latency_ms=0.2, jitter=Jitter.uniform(5.0), fifo=False)
        times = [t for t in self.transit_times(p, 400, seed=3) if t is not None]
        assert any(b < a for a, b in zip(times, times[1:]))

    def test_deterministic_drop_seq(self):
        p = LinkParams(drop_seq=frozenset({2, 5}))
        times = self.transit_times(p, 8)
        assert [t is None for t in times] == [False, False, True, False, False,
                                              True, False, False]

    def test_drop_decisions_nest_across_drop_prob(self):
        # same seed: every packet dropped at p=0.05 is also dropped at p=0.2
        low = self.transit_times(LinkParams(drop_prob=0.05), 2000, seed=42)
        high = self.transit_times(LinkParams(drop_prob=0.2), 2000, seed=42)
        for lo, hi in zip(low, high):
            if lo is None:
                assert hi is None

    def test_send_delivers_through_scheduler(self):
        sched = EventScheduler()
        chan = ideal_model(0.5).build(1)
        chan.bind(sched)
        got = []
        chan.send(FORWARD, "payload", 32, got.append)
        sched.run()
        assert got == ["payload"]
        assert chan.stats[FORWARD].delivered == 1

    def test_truncnorm_jitter_nonnegative(self):
        p = LinkParams(jitter=Jitter.truncnorm(0.1, 0.5), fifo=False)
        times = self.transit_times(p, 2000, seed=8, gap=0.0)
        for t in times:
            assert t is not None and t >= 0.5 - 1e-12  # jitter draw never negative

    def test_link_params_validation(self):
        with pytest.raises(ValueError):
            LinkParams(latency_ms=-1.0)
        with pytest.raises(ValueError):
            LinkParams(drop_prob=1.5)

    def test_negative_jitter_and_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Jitter.uniform(-5.0)
        with pytest.raises(ValueError):
            Jitter.truncnorm(1.0, -0.5)
        with pytest.raises(ValueError):
            LinkParams(bandwidth_bps=-8000.0)

    def test_unknown_jitter_kind_is_refused_when_built(self):
        """Not at the first draw, in the middle of a search."""
        with pytest.raises(ValueError, match="unknown jitter kind 'gauss'"):
            Jitter("gauss")


class TestLinkQueue:
    """transport.carry, the FIFO link queue, against the oracle queue."""

    def test_batch_matches_admit(self):
        """carry() gives the oracle queue's admit() arrivals (NaN for a tail
        drop) and returns the free_at it is left with, whether or not a
        packet waits; an uncapped transmitter still busy with packets from
        earlier batches included. A capped batch starts idle."""
        rng = Random(3)
        paths = set()
        for case in range(400):
            args = (rng.choice((1e5, 1e6, 1e7)), rng.choice((0.0, 0.5)),
                    rng.choice((None, 0, 1, 2, 4)))
            one, free_at = PacketQueue(*args), 0.0
            size_b = rng.choice((32, 256))
            ser = serialization_ms(size_b, args[0])
            t = 0.0
            for _ in range(rng.randint(0, 2)):
                t += rng.uniform(0.0, 1.0)
                if args[2] is None:  # a cap counts only the packets of its batch
                    got, free_at = carry(np.array([t]), ser, free_at)
                    assert one.admit(t, size_b) == got[0] + args[1]
            gap = rng.choice((0.01, 0.5, 5.0))
            sends = t + np.add.accumulate([rng.uniform(0.0, 2 * gap) for _ in range(30)])
            done = sends + size_b * 8.0 / args[0] * 1000.0
            paths.add(sends[0] < one.free_at or bool(np.any(sends[1:] < done[:-1])))
            want = [one.admit(s, size_b) for s in sends.tolist()]
            got, free_at = carry(sends, ser, free_at, args[2])
            assert repr((got + args[1]).tolist()) == repr([np.nan if w is None else w
                                                           for w in want]), case
            assert free_at == one.free_at, case
        assert paths == {False, True}

    def test_mixed_sizes_and_saturated_links_match_admit(self):
        """A batch of mixed sizes gives the oracle queue's admit() arrivals,
        called one packet at a time, bit for bit, and returns the free_at it
        is left with, from an idle transmitter under caps None,
        1, 2, 4 and 6; loads run from a tenth to three times the link rate,
        so some uncapped busy periods outlast transport.ROUNDS and the walk
        over each busy period still moving settles them. Some packets
        arrive together."""
        rng = Random(4)
        seen = Counter()
        for case in range(300):
            cap = rng.choice((None, None, 1, 2, 4, 6))
            args = (rng.choice((1e5, 1e6, 1e7)), rng.choice((0.0, 0.5)), cap)
            one = PacketQueue(*args)
            sizes = np.array([rng.choice((32, 64, 200, 1250)) for _ in range(rng.randint(1, 200))])
            gap = sizes.mean() * 8.0 / args[0] * 1000.0 / rng.uniform(0.1, 3.0)
            sends = np.add.accumulate([0.0 if rng.random() < 0.1 else rng.uniform(0.0, 2 * gap)
                                       for _ in sizes])
            want, run = [], 0
            for s, b in zip(sends.tolist(), sizes.tolist()):
                run = run + 1 if one.free_at > s else 0  # packets in a row that wait
                seen[(cap is None, min(run, ROUNDS + 1))] += 1
                want.append(one.admit(s, b))
            got, free_at = carry(sends, serialization_ms(sizes, args[0]), cap=cap)
            got = (got + args[1]).tolist()
            assert repr(got) == repr([np.nan if w is None else w for w in want]), case
            assert free_at == one.free_at, case
            seen["dropped"] += None in want
        assert seen[(True, 1)] and seen[(True, ROUNDS + 1)] >= 10, seen
        assert seen["dropped"] >= 10, seen

    def test_a_packet_that_arrives_as_the_transmitter_frees_does_not_wait(self, monkeypatch):
        """Arriving at free_at, or at the departure of the packet before,
        is no wait: carry takes its one vector sum and never calls _run."""
        calls = count_waiting_batches(monkeypatch)
        for cap in (None, 1):
            got, free = carry(np.array([2.0, 2.5, 3.0]), 0.5, 2.0, cap)
            assert got.tolist() == [2.5, 3.0, 3.5] and free == 3.5
        assert calls == [0]

    def test_empty_batch(self):
        """An empty batch leaves the transmitter's free_at as it was."""
        for cap in (None, 0, 2):
            for free_at in (0.0, 7.25):
                got, free = carry(np.empty(0), serialization_ms(32, 1e6), free_at, cap)
                assert len(got) == 0 and free == free_at

    def test_all_dropped_batch(self):
        """Under cap 0 every packet is tail-dropped, and the transmitter's
        free_at stays as it was."""
        for free_at in (0.0, 7.25):
            sends = np.array([1.0, 1.0, 3.0, 9.0])
            got, free = carry(sends, serialization_ms(np.array([32, 64, 32, 1250]), 1e6),
                              free_at, 0)
            assert np.isnan(got).all() and free == free_at

    def test_capped_batch_after_a_reset_matches_a_new_queue(self):
        """Two capped batches on one link, each carried from an idle
        transmitter, give a new oracle queue's admit() arrivals and free_at,
        however loaded the first batch left the link: a cap counts only the
        packets of the batch it is carrying."""
        rng = Random(8)
        dropped = 0
        for case in range(200):
            args = (rng.choice((1e5, 1e6)), rng.choice((0.0, 0.5)), rng.randint(0, 4))
            batches = []
            for _ in range(2):
                sizes = np.array([rng.choice((32, 200, 1250)) for _ in range(rng.randint(1, 80))])
                gap = sizes.mean() * 8.0 / args[0] * 1000.0 / rng.uniform(0.5, 3.0)
                sends = np.add.accumulate([rng.uniform(0.0, 2 * gap) for _ in sizes])
                batches.append((sends, sizes))
            for sends, sizes in batches:
                got, free = carry(sends, serialization_ms(sizes, args[0]), cap=args[2])
                new = PacketQueue(*args)
                want = [new.admit(t, b) for t, b in zip(sends.tolist(), sizes.tolist())]
                assert repr((got + args[1]).tolist()) == repr([np.nan if w is None else w
                                                               for w in want]), case
                assert free == new.free_at, case
            dropped += None in want  # in the second batch
        assert dropped >= 100, dropped


def _unqueued_transit_times(params: LinkParams, sends, seed: int):
    """The impaired channel's delivery times before serialization queued:
    now + latency + jitter + size*8/bw per packet, then the FIFO clamp,
    drawing from the channel's forward drop and jitter streams."""
    drop_rng, jitter_rng = Random(seed * 4), Random(seed * 4 + 1)
    last, out = -1.0, []
    for seq, (t_now, size) in enumerate(sends):
        dropped = seq in params.drop_seq
        if drop_rng.random() < params.drop_prob:
            dropped = True
        if dropped:
            out.append(None)
            continue
        delay = params.latency_ms + jitter_draws(params.jitter, jitter_rng, 1)[0]
        if params.bandwidth_bps > 0.0:
            delay += size * 8.0 / params.bandwidth_bps * 1000.0
        t = t_now + delay
        if params.fifo and t < last:
            t = last
        last = t
        out.append(t)
    return out


def _netsim_channel(seed: int):
    topo = Topology(switches=("s0", "s1"), links=(Link("s0", "s1"),), hosts={},
                    te_master="s0", te_slave="s1")
    return channel_from_topology(topo, (), seed)


@pytest.mark.parametrize("build", [ideal_model().build, _netsim_channel],
                         ids=["impaired", "netsim"])
class TestSimChannel:
    def test_unbound_channel_rejects_send(self, build):
        chan = build(1)
        with pytest.raises(ChannelClosed):
            chan.send(FORWARD, "x", 32, lambda p: None)
