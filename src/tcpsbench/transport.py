"""Bidirectional channel models and the datagram wire codec.

Simulated channels carry full-precision floats and use the configured
packet size only for serialization delay. A simulated run asks its channel
for a whole value-free round trip (round_trip); an impaired channel, with
configurable latency, jitter, drop probability and serialization rate,
decides it as one batch of sends per direction (carry). The per-packet
send on the virtual clock serves the event-driven reference runners.
Serialization queues FIFO: a packet waits in its link's `LinkQueue` until
the transmitter has sent the packets before it, on impaired links and
topology links alike. The byte codec (fixed little-endian header, random padding to a configured size,
trailing CRC-32) is the wire format of the real-datagram adapter and of
anything else that needs bit-exact framing.
"""

from __future__ import annotations

import math
import socket
import struct
import zlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterator, Sequence

import numpy as np

from .clock import EventScheduler, PRIO_DELIVERY
from .core import TcpsbenchError

FORWARD = "forward"   # operator -> teleoperator (kinematic)
BACKWARD = "backward"  # teleoperator -> operator (haptic / video)

KIND_KINEMATIC = 0
KIND_HAPTIC = 1

# kind u32, seq u32, epoch u32, x i64, value i64 (both fixed-point x1000)
_HEADER = struct.Struct("<IIIqq")
_FIELD_BYTES = _HEADER.size      # 28
MIN_PACKET_BYTES = 32            # 28-byte field block + 4-byte CRC
_SCALE = 1000.0


class PacketTooSmall(TcpsbenchError):
    pass


class TruncatedPacket(TcpsbenchError):
    pass


class ChecksumMismatch(TcpsbenchError):
    pass


class ChannelClosed(TcpsbenchError):
    pass


@dataclass(frozen=True)
class Packet:
    """Decoded wire packet. Values are quantized to 0.001 on the wire."""

    kind: int
    seq: int
    epoch: int
    x: float
    value: float


def encode(packet: Packet, size_b: int, rng: Random) -> bytes:
    """Serialize to exactly `size_b` bytes: header fields, RNG padding,
    trailing CRC-32 (polynomial 0xEDB88320) over everything before it."""
    if size_b < MIN_PACKET_BYTES:
        raise PacketTooSmall(f"packet size {size_b} below minimum {MIN_PACKET_BYTES}")
    body = _HEADER.pack(
        packet.kind,
        packet.seq & 0xFFFFFFFF,
        packet.epoch & 0xFFFFFFFF,
        round(packet.x * _SCALE),
        round(packet.value * _SCALE),
    )
    pad_len = size_b - _FIELD_BYTES - 4
    body += rng.randbytes(pad_len)
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return body + struct.pack("<I", crc)


def decode(data: bytes) -> Packet:
    """Recover the packet fields, verifying length and checksum."""
    if len(data) < MIN_PACKET_BYTES:
        raise TruncatedPacket(f"{len(data)} bytes, need at least {MIN_PACKET_BYTES}")
    body, crc_bytes = data[:-4], data[-4:]
    (crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise ChecksumMismatch("CRC-32 verification failed")
    kind, seq, epoch, x_fp, v_fp = _HEADER.unpack_from(body)
    return Packet(kind=kind, seq=seq, epoch=epoch, x=x_fp / _SCALE, value=v_fp / _SCALE)


# --- jitter distributions -------------------------------------------------

@dataclass(frozen=True)
class Jitter:
    """Per-packet delay noise: 'none', 'uniform' on [0, a], or a
    non-negative truncated normal(mu, sigma)."""

    kind: str = "none"
    a: float = 0.0
    mu: float = 0.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.a < math.inf and 0.0 <= self.sigma < math.inf
                and math.isfinite(self.mu)):  # NaN fails too
            raise ValueError("jitter a and sigma must be finite and >= 0, mu finite")

    @staticmethod
    def none() -> "Jitter":
        return Jitter("none")

    @staticmethod
    def uniform(a: float) -> "Jitter":
        return Jitter("uniform", a=a)

    @staticmethod
    def truncnorm(mu: float, sigma: float) -> "Jitter":
        return Jitter("truncnorm", mu=mu, sigma=sigma)


@dataclass(frozen=True)
class LinkParams:
    """One direction of an impaired point-to-point link.

    bandwidth_bps = 0 means infinite (no transmitter, no serialization
    delay). A finite rate serializes packets FIFO through a `LinkQueue`, so
    a packet sent while an earlier one is still on the wire waits for it;
    latency and jitter are added after serialization. Dropped packets never
    occupy the transmitter. drop_seq deterministically drops the packets
    with those send indices, on top of the random drop probability; useful
    for fault-injection experiments.
    """

    latency_ms: float = 0.5
    jitter: Jitter = Jitter.none()
    drop_prob: float = 0.0
    bandwidth_bps: float = 0.0
    fifo: bool = True
    drop_seq: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if not 0.0 <= self.latency_ms < math.inf:  # NaN fails too
            raise ValueError("latency must be finite and >= 0")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop_prob must lie in [0, 1]")
        if not 0.0 <= self.bandwidth_bps < math.inf:
            raise ValueError("bandwidth_bps must be finite and >= 0")


@dataclass(frozen=True)
class ChannelModel:
    """Static description of a bidirectional impaired channel."""

    forward: LinkParams = LinkParams()
    backward: LinkParams = LinkParams()

    def build(self, seed: int) -> "ImpairedChannel":
        return ImpairedChannel(self, seed)


def ideal_model(latency_each_way_ms: float = 0.5) -> ChannelModel:
    """Zero-loss, zero-jitter channel; 1 ms RTT by default."""
    p = LinkParams(latency_ms=latency_each_way_ms)
    return ChannelModel(forward=p, backward=p)


@dataclass
class DirectionStats:
    """Packet accounting of one direction. Channels count sent, delivered
    and dropped; stale counts deliveries the receiving loop side discarded
    as older than the newest it had seen, filled in by the experiment runner."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    stale: int = 0


class LinkQueue:
    """FIFO output queue of one directed link: tracks when the transmitter
    frees up, plus in-flight departure times when a capacity cap applies.
    admit() takes one packet at a time; carry() a time-sorted batch of
    packets, each with its own time on the wire."""

    __slots__ = ("bandwidth_bps", "delay_ms", "cap", "free_at", "departures")

    ROUNDS = 32  # numpy rounds of run() before the unsettled suffix goes through the loop

    def __init__(self, bandwidth_bps: float, delay_ms: float = 0.0,
                 cap: int | None = None) -> None:
        self.bandwidth_bps = bandwidth_bps
        self.delay_ms = delay_ms
        self.cap = cap
        self.free_at = 0.0
        self.departures: list[float] = []

    def serialization_ms(self, size_b: int | np.ndarray) -> float | np.ndarray:
        """The time a packet of size_b bytes (or each of an array) takes on the wire."""
        return size_b * 8.0 / self.bandwidth_bps * 1000.0

    def admit(self, now: float, size_b: int) -> float | None:
        """Returns the arrival time at the far end, or None on tail drop."""
        if self.cap is not None:
            self.departures = [d for d in self.departures if d > now]
            if len(self.departures) >= self.cap:
                return None
        start = self.free_at if self.free_at > now else now
        finish = start + self.serialization_ms(size_b)
        self.free_at = finish
        if self.cap is not None:
            self.departures.append(finish)
        return finish + self.delay_ms

    def carry(self, arrivals: np.ndarray, ser: float | np.ndarray) -> np.ndarray:
        """admit() over a time-sorted batch whose packets take ser ms on the
        wire (one time, or one per packet, from serialization_ms): the
        far-end arrival times, NaN where a packet is tail-dropped. When no
        packet waits for the transmitter, Lindley's recurrence
        d_k = max(a_k, d_{k-1}) + s_k is d = a + s and nothing is in flight
        at an arrival, so the batch takes one vector sum; otherwise it goes
        through run()."""
        done = arrivals + ser
        if len(done) and (self.cap is None or self.cap > 0) and arrivals[0] >= self.free_at \
                and bool(np.all(arrivals[1:] >= done[:-1])):
            self.free_at = float(done[-1])
            if self.cap is not None:
                self.departures = [self.free_at]
            return done + self.delay_ms
        return self.run(arrivals, np.broadcast_to(ser, done.shape), done) + self.delay_ms

    def run(self, a: np.ndarray, ser: np.ndarray, done: np.ndarray) -> np.ndarray:
        """The departures of a time-sorted batch (done = a + ser), NaN for a
        tail drop, by Lindley's recurrence with admit()'s arithmetic and cap
        rule. Uncapped, numpy rounds start from d = done and recompute only
        the packets whose predecessor changed, as max(a_k, d_{k-1}) + s_k,
        until none changes: the loop's two float operations, and the
        recurrence has one solution, so the result is bit-identical. After
        ROUNDS rounds the unsettled suffix, and a capped batch from its
        start, go through the sequential loop."""
        n = len(a)
        d = np.concatenate(([self.free_at], done))  # d[k + 1]: departure of packet k
        k0 = 0
        if self.cap is None:
            todo = np.arange(n)
            for _ in range(self.ROUNDS):
                new = np.maximum(a[todo], d[todo]) + ser[todo]
                moved = todo[new != d[todo + 1]]
                d[todo + 1] = new
                todo = moved[moved < n - 1] + 1
                if not len(todo):
                    break
            k0 = int(todo[0]) if len(todo) else n
        free, cap, deps = float(d[k0]), self.cap, self.departures
        out = []
        for now, s in zip(a[k0:].tolist(), ser[k0:].tolist()):
            if cap is not None:
                deps = [x for x in deps if x > now]
                if len(deps) >= cap:
                    out.append(math.nan)
                    continue
            start = free if free > now else now
            free = start + s
            out.append(free)
            if cap is not None:
                deps.append(free)
        d[k0 + 1:] = out
        self.free_at, self.departures = free, deps
        return d[1:]


class SimChannel:
    """Shell of a simulated bidirectional channel: per-direction stats,
    scheduler binding, and the bound check and delivery counting around
    each send on the virtual clock, whose subclass `_carry` moves one
    packet and schedules `deliver` at its arrival (an impaired channel
    does; a topology channel only runs round trips). Simulated runs use
    round_trip(sends, size_b, drain_at, answer) instead: command k leaves
    at sends[k] (sorted), the far end answers each command that
    answer(arrivals) picks (ascending send indices, in delivery order) when
    it lands, and periodic sources stop after drain_at. It returns the
    commands' arrival times (NaN: lost), the picks and the answers' arrival
    times as the clock would give them, and counts both directions in the
    stats as send does once every packet has landed."""

    def __init__(self) -> None:
        self.stats = {FORWARD: DirectionStats(), BACKWARD: DirectionStats()}
        self._sched: EventScheduler | None = None

    def bind(self, scheduler: EventScheduler) -> None:
        self._sched = scheduler

    def begin_drain(self) -> None:
        """Stop periodic sources before the final drain; none by default."""

    def send(self, direction: str, payload: object, size_b: int,
             deliver: Callable[[object], None]) -> None:
        if self._sched is None:
            raise ChannelClosed("channel not bound to a scheduler")
        stats = self.stats[direction]

        def _deliver() -> None:
            stats.delivered += 1
            deliver(payload)

        self._carry(direction, size_b, _deliver)

    def _carry(self, direction: str, size_b: int, deliver: Callable[[], None]) -> None:
        raise NotImplementedError


# draws kept for reuse by seed while a shared_draws() block is open
_SHARED_DRAWS: ContextVar[dict | None] = ContextVar("shared_draws", default=None)


@contextmanager
def shared_draws() -> Iterator[None]:
    """Within the block, impaired channels with the same seed share their
    random draws: each stream is drawn once and kept as an array, without
    its generator. A search opens one block, so trials at different loop
    times reuse the draws of their common seeds."""
    token = _SHARED_DRAWS.set({})
    try:
        yield
    finally:
        _SHARED_DRAWS.reset(token)


_TWOPI = 2.0 * math.pi  # Random.gauss's constant


def _uniforms(rngs: Sequence[Random], n: int) -> np.ndarray:
    """The next n values of rng.random() of each generator, one row each,
    bit for bit: getrandbits returns MT19937's 32-bit outputs least
    significant first, so read as little-endian words they come in
    random()'s order, and random() is ((a >> 5) * 2**26 + (b >> 6)) / 2**53
    of two successive words, all exact in float64."""
    raw = b"".join([rng.getrandbits(64 * n).to_bytes(8 * n, "little") for rng in rngs])
    w = np.frombuffer(raw, dtype="<u4").reshape(len(rngs), 2 * n)
    return ((w[:, 0::2] >> 5) * 67108864.0 + (w[:, 1::2] >> 6)) / 9007199254740992.0


def _box_muller(u: np.ndarray) -> np.ndarray:
    """The standard normals rng.gauss makes of its uniforms u (per row,
    pairs in draw order), bit for bit: Box-Muller (Box & Muller 1958) in
    Random.gauss's operation order, the products and the square root in
    numpy (both correctly rounded) and the libm calls through math (numpy's
    vector log, cos and sin can differ in the last bit).
    rng.gauss(mu, sigma) is mu + z * sigma."""
    half = u[..., 0::2].shape
    x2pi = (u[..., 0::2] * _TWOPI).ravel().tolist()
    logs = np.fromiter(map(math.log, (1.0 - u[..., 1::2]).ravel().tolist()), float, len(x2pi))
    g2rad = np.sqrt(-2.0 * logs)
    z = np.empty(u.shape)
    z[..., 0::2] = (np.fromiter(map(math.cos, x2pi), float, len(x2pi)) * g2rad).reshape(half)
    z[..., 1::2] = (np.fromiter(map(math.sin, x2pi), float, len(x2pi)) * g2rad).reshape(half)
    return z


def _tries_per_value(mu: float, sigma: float) -> float:
    """The expected normals a truncated normal value takes, (1 - (1 - p)^64)
    / p for p the chance of a non-negative one."""
    p = 0.5 * math.erfc(-mu / (sigma * math.sqrt(2.0))) if sigma > 0.0 else float(mu >= 0.0)
    return 64.0 if p == 0.0 else 1.0 if p == 1.0 else -math.expm1(64 * math.log1p(-p)) / p


def _tries(v: list[float], k: int) -> list[float]:
    """Up to k truncated normal values from the tries v: the first
    non-negative one of each value's tries, or 0 after 64 negative ones."""
    vals, tries = [], 0
    for x in v:
        tries += 1
        if x >= 0.0 or tries == 64:
            vals.append(x if x >= 0.0 else 0.0)
            tries = 0
            if len(vals) == k:
                break
    return vals


def _draw_streams(seeds: Sequence[int], jitter: Jitter | None, size: int) -> list[np.ndarray]:
    """The first `size` values of the stream (seed, jitter) of each seed,
    drawn together in bulk, bit for bit those of a loop that calls a
    Random(seed) once per value: random() for drops (jitter None),
    uniform(0, a) or gauss(mu, sigma) for jitter, where a truncated normal
    redraws a negative value up to 64 times, then gives 0.

    Each stream's normals come in one chunk of the expected number of tries
    plus a margin. Its values are the chunk's non-negative normals, unless
    64 negatives in a row come before the last one needed: then a scalar
    pass over the chunk applies the 64-try rule. A stream whose chunk falls
    short is drawn again from its seed, with a chunk twice as long."""
    if jitter is None or jitter.kind == "uniform":
        u = _uniforms([Random(seed) for seed in seeds], size)
        return list(u if jitter is None else jitter.a * u)  # uniform(0, a): 0.0 + (a - 0.0) * random()
    if jitter.kind != "truncnorm":
        raise ValueError(f"unknown jitter kind {jitter.kind!r}")
    mu, sigma = jitter.mu, jitter.sigma
    out: dict[int, np.ndarray] = {}
    todo = list(range(len(seeds)))
    pairs = math.ceil((size * _tries_per_value(mu, sigma) * 1.1 + 16) / 2)
    while todo:
        v = mu + _box_muller(_uniforms([Random(seeds[i]) for i in todo], 2 * pairs)) * sigma
        kept = v >= 0.0
        count = np.cumsum(kept, axis=1)
        cols = np.arange(2 * pairs)
        last = np.argmax(count >= size, axis=1)  # the normal that gives the last value
        negatives = cols - np.maximum.accumulate(np.where(kept, cols, -1), axis=1)
        whole = (count[:, -1] >= size) & ~((negatives >= 64) & (cols <= last[:, None])).any(axis=1)
        short = []
        for j, (i, ok) in enumerate(zip(todo, whole.tolist())):
            vals = v[j][kept[j]][:size] if ok else np.array(_tries(v[j].tolist(), size))
            if len(vals) == size:
                out[i] = vals
            else:
                short.append(i)
        todo, pairs = short, 2 * pairs
    return [out[i] for i in range(len(seeds))]


# channel seeds of the batch of trials about to run, while a batch_seeds() block is open
_BATCH_SEEDS: ContextVar[frozenset] = ContextVar("batch_seeds", default=frozenset())


@contextmanager
def batch_seeds(seeds: Sequence[int]) -> Iterator[None]:
    """Within the block, and inside a shared_draws() block, an impaired
    channel built for one of these seeds draws each of its random streams
    for all of them at once at its first round trip; the channels built for
    the other seeds then read their streams from the shared draws. The
    values are those each channel would draw alone."""
    token = _BATCH_SEEDS.set(frozenset(seeds))
    try:
        yield
    finally:
        _BATCH_SEEDS.reset(token)


class _Draws:
    """One seeded stdlib stream of per-packet draws (drop uniforms when
    jitter is None, else jitter values), read in order. The stream is drawn
    at first use, at least `reserve` values at a time, by _draw_streams;
    a stream that needs more values is drawn again from its seed, and the
    values so far repeat exactly. In a shared_draws() block a stream starts
    from the values already drawn for its (seed, jitter), which are the same
    values."""

    __slots__ = ("key", "values", "pos")

    def __init__(self, seed: int, jitter: Jitter | None) -> None:
        self.key = (seed, jitter)
        self.values = np.empty(0)
        self.pos = 0

    def take(self, n: int, reserve: int = 0) -> np.ndarray:
        """The next n values."""
        end = self.pos + n
        if end > len(self.values):
            self._draw(max(end, reserve, 2 * len(self.values), 16))
        out = self.values[self.pos:end]
        self.pos = end
        return out

    def _draw(self, size: int) -> None:
        shared = _SHARED_DRAWS.get()
        cached = None if shared is None else shared.get(self.key)
        if cached is not None and len(cached) >= size:
            self.values = cached
            return
        self.values = _draw_streams([self.key[0]], self.key[1], size)[0]
        if shared is not None:
            shared[self.key] = self.values


class _LinkState:
    __slots__ = ("params", "send_count", "last_delivery", "queue", "drops", "jitter")

    def __init__(self, params: LinkParams, seed: int) -> None:
        self.params = params
        self.send_count = 0
        self.last_delivery = -1.0
        # bandwidth 0 has no transmitter to queue behind
        self.queue = LinkQueue(params.bandwidth_bps) if params.bandwidth_bps > 0.0 else None
        # a uniform never falls below drop_prob 0, and jitter 'none' draws nothing
        self.drops = _Draws(seed, None) if params.drop_prob > 0.0 else None
        self.jitter = _Draws(seed + 1, params.jitter) if params.jitter.kind != "none" else None


class ImpairedChannel(SimChannel):
    """Parametric lossy/jittery link pair driven by the virtual clock, or
    carrying a whole batch of sends at once (carry).

    Deterministic per seed: each direction owns independent RNG streams for
    drops and jitter so that raising drop_prob with a fixed seed only adds
    drops (the drop decisions nest). The streams are seeded at first use.
    """

    def __init__(self, model: ChannelModel, seed: int) -> None:
        super().__init__()
        self.model = model
        # integer seed derivation only: string/tuple seeding would go through
        # the per-process randomized hash and break reproducibility
        self.seed = int(seed)
        base = self.seed * 4
        self._links = {
            FORWARD: _LinkState(model.forward, base),
            BACKWARD: _LinkState(model.backward, base + 2),
        }

    def transit_time(self, direction: str, size_b: int, t_now: float) -> float | None:
        """Decide drop/delivery for one packet; returns the delivery time or
        None when dropped. Advances per-direction state."""
        link = self._links[direction]
        p = link.params
        seq = link.send_count
        link.send_count += 1
        self.stats[direction].sent += 1
        dropped = seq in p.drop_seq
        # one uniform per packet, listed in drop_seq or not, so drop
        # decisions nest across drop_prob settings under a shared seed
        if link.drops is not None and link.drops.take(1)[0] < p.drop_prob:
            dropped = True
        if dropped:
            self.stats[direction].dropped += 1
            return None
        delay = p.latency_ms + (0.0 if link.jitter is None else float(link.jitter.take(1)[0]))
        t_sent = t_now if link.queue is None else link.queue.admit(t_now, size_b)
        t_deliver = t_sent + delay
        if p.fifo and t_deliver < link.last_delivery:
            t_deliver = link.last_delivery
        link.last_delivery = t_deliver
        return t_deliver

    def carry(self, direction: str, send_times: np.ndarray, size_b: int,
              reserve: int = 0) -> np.ndarray:
        """transit_time over a time-sorted batch of sends, in one call with
        the same arithmetic, draws and state changes: the delivery times,
        NaN where a packet is dropped. The delivered packets count at once.
        reserve: draw at least that many values of a random stream at its
        first use."""
        link = self._links[direction]
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
                dropped |= link.drops.take(n, reserve) < p.drop_prob
            kept = np.flatnonzero(~dropped)
            t = send_times[kept]
        if link.queue is not None:
            t = link.queue.carry(t, link.queue.serialization_ms(size_b))
        delay = p.latency_ms
        if link.jitter is not None:
            delay = delay + link.jitter.take(len(t), reserve)
        t = t + delay
        if len(t):
            if p.fifo:
                t = np.maximum(np.maximum.accumulate(t), link.last_delivery)
            link.last_delivery = float(t[-1])
        stats = self.stats[direction]
        stats.sent += n
        stats.dropped += n - len(t)
        stats.delivered += len(t)  # send counts them as they land
        if kept is None:
            return t
        out = np.full(n, np.nan)
        out[kept] = t
        return out

    def round_trip(self, sends: np.ndarray, size_b: int, drain_at: float,
                   answer: Callable[[np.ndarray], np.ndarray]):
        """SimChannel.round_trip as one batch per direction."""
        n = len(sends)
        self._draw_for_batch(max(n, 16))
        fwd = self.carry(FORWARD, sends, size_b, reserve=n)
        picked = answer(fwd)
        return fwd, picked, self.carry(BACKWARD, fwd[picked], size_b, reserve=n)

    def _draw_for_batch(self, size: int) -> None:
        """In a batch_seeds() block that holds this channel's seed, inside a
        shared_draws() block, draw the first `size` values of each stream of
        this channel's kind for every seed of the batch not drawn yet, one
        bulk draw per stream (_draw_streams); a round trip reads at most
        that many at its first take (reserve)."""
        shared, seeds = _SHARED_DRAWS.get(), _BATCH_SEEDS.get()
        if shared is None or self.seed not in seeds:
            return
        for link in self._links.values():
            for stream in (link.drops, link.jitter):
                if stream is None or stream.key in shared:
                    continue
                offset, jitter = stream.key[0] - 4 * self.seed, stream.key[1]
                keys = [k for k in sorted((4 * s + offset, jitter) for s in seeds) if k not in shared]
                shared.update(zip(keys, _draw_streams([k[0] for k in keys], jitter, size)))

    def _carry(self, direction: str, size_b: int, deliver: Callable[[], None]) -> None:
        t = self.transit_time(direction, size_b, self._sched.now)
        if t is not None:
            self._sched.schedule(t, deliver, PRIO_DELIVERY)


# --- real-datagram adapter -------------------------------------------------

class SocketTimeout(TcpsbenchError):
    """No packet arrived within the configured deadline."""


class DatagramEndpoint:
    """Connectionless datagram endpoint speaking the wire codec.

    One packet per datagram. Safe for use by two concurrently running loops
    (one sending, one receiving): the underlying socket operations are
    atomic per datagram and the padding RNG is guarded.
    """

    def __init__(self, local: tuple[str, int], remote: tuple[str, int] | None = None,
                 packet_size_b: int = MIN_PACKET_BYTES, seed: int = 0) -> None:
        import threading

        self.packet_size_b = packet_size_b
        self._remote = remote
        self._rng = Random(seed)
        self._rng_lock = threading.Lock()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.bind(local)

    @property
    def local_address(self) -> tuple[str, int]:
        return self._sock.getsockname()

    def send_packet(self, packet: Packet, to: tuple[str, int] | None = None) -> None:
        dest = to or self._remote
        if dest is None:
            raise ChannelClosed("no destination address configured")
        with self._rng_lock:
            data = encode(packet, self.packet_size_b, self._rng)
        self._sock.sendto(data, dest)

    def recv_packet(self, deadline_ms: float | None) -> tuple[Packet, tuple[str, int]]:
        """Blocking receive; raises SocketTimeout after deadline_ms.
        Datagrams that fail checksum verification are counted and skipped."""
        self._sock.settimeout(None if deadline_ms is None else deadline_ms / 1000.0)
        while True:
            try:
                data, addr = self._sock.recvfrom(65535)
            except socket.timeout:
                raise SocketTimeout(f"no packet within {deadline_ms} ms") from None
            try:
                return decode(data), addr
            except (ChecksumMismatch, TruncatedPacket):
                continue

    def poll_packet(self) -> Packet | None:
        """Non-blocking receive of the freshest pending packet, if any."""
        self._sock.setblocking(False)
        newest = None
        while True:
            try:
                data, _addr = self._sock.recvfrom(65535)
            except OSError:  # BlockingIOError: nothing pending
                break
            try:
                pkt = decode(data)
            except (ChecksumMismatch, TruncatedPacket):
                continue
            if newest is None or pkt.seq >= newest.seq:
                newest = pkt
        self._sock.setblocking(True)
        return newest

    def close(self) -> None:
        self._sock.close()
