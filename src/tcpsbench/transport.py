"""Bidirectional channel models and the datagram wire codec.

Simulated channels carry full-precision floats and use the configured
packet size only for serialization delay. A simulated run asks for a whole
value-free round trip, in which the far end answers each fresh command
(_fresh_mask) as it lands: round_trip for one channel, and round_trips for
the rows of a block, of one of two kinds: ChannelRows, channels of any
kind, one at a time, or for impaired and ideal channels (latency, jitter,
drop probability, serialization rate) an ImpairedBlock, a batch of trial
seeds as arrays with no channel object per trial. Every answer keeps its
command's column, k for command k, from the far end on; an ImpairedBlock
carries the answers back from those columns. An ImpairedChannel is a
block of one; its per-packet send on the virtual clock serves the
event-driven reference runners.
Serialization queues FIFO through `carry`, on impaired and topology links
alike. The byte codec (fixed little-endian header, random padding to a
configured size, trailing CRC-32) is the wire format of the real-datagram
adapter and of anything else that needs bit-exact framing.
"""

from __future__ import annotations

import cmath
import math
import struct
import zlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterator, Sequence

import numpy as np

from .clock import EventScheduler, PRIO_DELIVERY
from .core import TcpsbenchError, check_seed

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

    # the parameters each kind draws with
    PARAMS = {"none": (), "uniform": ("a",), "truncnorm": ("mu", "sigma")}

    def __post_init__(self) -> None:
        if self.kind not in self.PARAMS:
            raise ValueError(f"unknown jitter kind {self.kind!r}")
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
    delay). A finite rate serializes packets FIFO through `carry`, so
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
        if not all(type(s) is int and s >= 0 for s in self.drop_seq):
            raise ValueError("drop_seq entries must be send indices (integers >= 0)")


@dataclass(frozen=True)
class ChannelModel:
    """Static description of a bidirectional impaired channel."""

    forward: LinkParams = LinkParams()
    backward: LinkParams = LinkParams()

    def build(self, seed: int) -> "ImpairedChannel":
        return ImpairedChannel(self, seed)

    def block(self, seeds: Sequence[int]) -> "ImpairedBlock":
        """The channels of these seeds as the rows of one block."""
        return ImpairedBlock(self, seeds)


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


# rounds of Lindley's recurrence, carry's wait test the first, before each
# busy period still moving is walked whole
ROUNDS = 16
LOCKSTEP_ROWS = 32  # the fewest busy periods a capped lockstep step runs; fewer finish in the loop


def serialization_ms(size_b: int | np.ndarray, bandwidth_bps: float) -> float | np.ndarray:
    """The time a packet of size_b bytes (or each of an array) takes on the wire."""
    return size_b * 8.0 / bandwidth_bps * 1000.0


def carry(arrivals: np.ndarray, ser: float | np.ndarray, free_at: float = 0.0,
          cap: int | None = None) -> tuple[np.ndarray, float]:
    """The departures of a time-sorted batch whose packets take ser ms on
    the wire (one time, or one per packet) from a FIFO transmitter busy
    until free_at, NaN where a packet is tail-dropped, and the transmitter's
    new free_at. A cap counts only the batch's packets. Lindley's
    recurrence d_k = max(a_k, d_{k-1}) + s_k starts from d = a + s, one
    vector sum; when no packet waits (a_k >= d_{k-1}, free_at before the
    first), that is the answer, and otherwise the batch goes through _run
    with the wait mask."""
    n = len(arrivals)
    d = np.empty(n + 1)  # d[k + 1]: departure of packet k
    d[0] = free_at
    done = np.add(arrivals, ser, out=d[1:])
    waits = arrivals < d[:-1]
    if n and (cap is None or cap > 0) and not waits.any():
        return done, float(done[-1])
    return _run(arrivals, ser, d, waits, cap)


def _run(a: np.ndarray, ser: float | np.ndarray, d: np.ndarray, waits: np.ndarray,
         cap: int | None) -> tuple[np.ndarray, float]:
    """carry for a batch in which a packet waits, from d = [free_at, a + ser]
    and waits = a < d[:-1]. Lindley's first round max(a, d[:-1]) + ser
    changes only the packets that wait, so waits is the mask of the
    packets it moves, and _lindley solves the rest of the uncapped batch
    with no loop over its packets. Under a cap, _capped drops from that
    solution."""
    n = len(a)
    if cap == 0 or not n:
        d[1:] = math.nan
        return d[1:], float(d[0])
    if np.shape(ser) != a.shape:
        ser = np.broadcast_to(ser, a.shape)
    round1 = np.empty(n + 1)  # d becomes the sweeps' other buffer
    round1[0] = d[0]
    np.maximum(a, d[:-1], out=round1[1:])
    round1[1:] += ser
    d = _lindley(a, ser, round1, d, waits[:-1])  # the last packet moves no successor
    if cap is None:
        return d[1:], float(d[-1])
    return _capped(a, ser, d[1:], cap)


def _lindley(a: np.ndarray, ser: np.ndarray, d: np.ndarray, spare: np.ndarray,
             moved: np.ndarray) -> np.ndarray:
    """Lindley's recurrence d_k = max(a_k, d_{k-1}) + s_k over a time-sorted
    batch, solved bit for bit as the sequential loop computes it, after its
    first round: d[0] is the departure before the batch, and d[k + 1],
    packet k's, is max(a_k, a_{k-1} + s_{k-1}) + s_k; moved[k] is set
    where packet k moved. Returns d or spare, a buffer of d's shape that
    starts with d[0], whichever holds the solution: a sweep writes the
    other one. A round recomputes packets from their predecessors with the
    loop's two float operations: whole-array sweeps while more than a 16th
    of the batch changes, then only the packets whose predecessor changed
    (todo). A round only raises a departure toward the recurrence's
    unique solution, as float rounding is monotone, and a packet outside
    todo agrees with its predecessor. So after ROUNDS rounds the
    departures before the first packet k of todo are final, and k heads a
    busy period: its departures are the loop's own left-to-right sum,
    np.add.accumulate([max(a_k, d_{k-1}) + s_k, s_{k+1}, ...]), read in
    windows that double, up to the first packet j with a_j >= d_{j-1}.
    Packet j's departure a_j + s_j is already final, and so is every
    departure from j up to the next head in todo, which is walked the same
    way."""
    n = len(a)
    todo = None
    for _ in range(ROUNDS - 1):
        if todo is None and np.count_nonzero(moved) * 16 < n:
            todo = np.flatnonzero(moved) + 1
        if todo is None:
            new = spare[1:]
            np.maximum(a, d[:-1], out=new)
            new += ser
            np.not_equal(new[:-1], d[1:-1], out=moved)
            d, spare = spare, d
            continue
        if not len(todo):
            return d
        nxt = todo + 1  # d[nxt]: the departures of the packets in todo
        step = np.maximum(a[todo], d[todo])
        step += ser[todo]
        changed = step != d[nxt]
        d[nxt] = step
        todo = nxt[changed]
        if len(todo) and todo[-1] == n:  # the last packet moves no successor
            todo = todo[:-1]
    if todo is None:
        todo = np.flatnonzero(moved) + 1
    end = 0
    for k in todo.tolist():
        if k <= end:  # inside, or at the final end of, a period already walked
            continue
        free, width = d[k], 2 * ROUNDS
        while k < n:
            hi = min(k + width, n)
            sums = ser[k:hi].copy()
            sums[0] += max(a[k], free)
            np.add.accumulate(sums, out=sums)
            idle = np.flatnonzero(a[k + 1:hi] >= sums[:-1])
            if len(idle):
                end = k + 1 + int(idle[0])
                d[k + 1:end + 1] = sums[:end - k]
                break
            d[k + 1:hi + 1] = sums
            free, k, width = sums[-1], hi, 2 * width
        else:
            end = n
    return d


def _capped(a: np.ndarray, ser: np.ndarray, d: np.ndarray,
            cap: int) -> tuple[np.ndarray, float]:
    """The cap rule over the uncapped departures d, in place: a packet that
    finds cap of the batch's accepted packets in flight is dropped, and
    accepted departures never decrease, so that is deps[-cap] > now. A
    dropped packet adds no work, so by induction no accepted departure is
    later than its uncapped one. So a packet that finds the uncapped queue
    idle (a_k >= d_{k-1}) finds every earlier packet gone, and the rule
    starts afresh there: the uncapped busy periods are independent. Within
    one, the packets before the first k with d_{k-cap} > a_k keep their
    uncapped departures (an earlier period's are at most a_k). From k on,
    each such period is a row, and the rows run the loop's arithmetic in
    lockstep, one numpy step per position, while at least LOCKSTEP_ROWS
    are open; each row keeps its last cap accepted departures, oldest
    first. The rows still open after that finish in the loop (_drop_loop).
    The transmitter's free_at is the last accepted departure, the largest."""
    n = len(a)
    late = np.flatnonzero(d[:-cap] > a[cap:]) + cap
    if not len(late):
        return d, float(d[-1])
    heads = np.flatnonzero(a[1:] >= d[:-1]) + 1  # each packet that finds the queue idle
    period = np.searchsorted(heads, late, side="right")
    first = late[np.flatnonzero(np.diff(period, prepend=-1))]  # each period's first late packet
    ends = np.append(heads, n)[np.searchsorted(heads, first, side="right")]
    order = np.argsort(first - ends, kind="stable")  # the longest rows first
    first, ends = first[order], ends[order]
    lengths = ends - first
    open_rows = np.searchsorted(-lengths, -np.arange(lengths[0]))  # at each step
    steps = int(np.count_nonzero(open_rows >= LOCKSTEP_ROWS))
    free = d[first - 1]
    deps = d[first[:, None] - cap + np.arange(cap)]  # each row's last cap accepted, oldest first
    if steps:
        width = open_rows[:steps]
        offsets = np.concatenate(([0], np.cumsum(width)))
        at = np.arange(offsets[-1]) - np.repeat(offsets[:-1], width)
        at = first[at] + np.repeat(np.arange(steps), width)  # step by step, the open rows' packets
        now_all, ser_all = a[at], ser[at]
        out = np.full(len(at), math.nan)
        for p in range(steps):
            lo, hi = offsets[p], offsets[p + 1]
            c = hi - lo
            now = now_all[lo:hi]
            dep = np.maximum(free[:c], now)
            dep += ser_all[lo:hi]
            ok = deps[:c, 0] <= now
            np.copyto(free[:c], dep, where=ok)
            np.copyto(out[lo:hi], dep, where=ok)
            np.copyto(deps[:c, :-1], deps[:c, 1:], where=ok[:, None])
            np.copyto(deps[:c, -1], dep, where=ok)
        d[at] = out
    for r in range(int(open_rows[steps]) if steps < len(open_rows) else 0):
        k, e = int(first[r]) + steps, int(ends[r])
        d[k:e] = _drop_loop(a[k:e], ser[k:e], float(free[r]), deps[r].tolist(), cap)[0]
    return d, float(np.fmax.reduce(d))


def _drop_loop(a: np.ndarray, ser: np.ndarray, free: float, deps: list[float],
               cap: int) -> tuple[list[float], float]:
    """The cap rule one packet at a time, from the transmitter's free time
    and the accepted departures before it, oldest first (at least cap):
    the departures (NaN: dropped) and the new free time."""
    out, keep = [], deps.append
    put = out.append
    for now, s in zip(a.tolist(), ser.tolist()):
        if deps[-cap] > now:
            put(math.nan)
            continue
        free = (free if free > now else now) + s
        put(free)
        keep(free)
    return out, free


def _fresh_mask(arrivals: np.ndarray) -> np.ndarray:
    """The mask of the packets of each row of arrival times (a channel's
    packets in send order, NaN: lost) that are taken in delivery order,
    each newer than every one delivered before it (send index stands for
    sequence number). The delivery order is the clock's: by arrival time,
    ties in send order. So a landed packet is fresh when no later send
    lands strictly before it: when it lands at or before the minimum
    arrival of the later sends, a running minimum from the last send on,
    seeded with inf (fmin skips the lost sends, so it is never NaN)."""
    later = np.empty(arrivals.shape)
    later[..., :1] = np.inf
    later[..., 1:] = arrivals[..., :0:-1]
    np.fmin.accumulate(later, axis=-1, out=later)
    return arrivals <= later[..., ::-1]


def _in_columns(values: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """Row r's values in order, one to each column set in mask[r] (None: all), else 0."""
    if mask is None:
        return values
    out = np.zeros_like(values)
    out[mask] = values[np.arange(values.shape[1]) < mask.sum(axis=1)[:, None]]
    return out


class SimChannel:
    """Shell of a simulated bidirectional channel: per-direction stats,
    scheduler binding, and the bound check and delivery counting around
    each send on the virtual clock, whose subclass `_carry` moves one
    packet and schedules `deliver` at its arrival (an impaired channel
    does; a topology channel only runs round trips). Simulated runs use
    round_trip(sends, size_b, drain_at) instead: command k leaves at
    sends[k] (sorted), the far end answers each fresh command (_fresh_mask)
    when it lands, and periodic sources stop after drain_at. It returns the
    commands' arrival times (NaN: lost), the mask of the fresh commands and
    the answers' arrival times, the answer to command k in column k (NaN:
    none, or lost), as the clock would give them, and counts both
    directions in the stats (_count) as send does once every packet has
    landed. It is row 0 of ChannelRows([channel]).round_trips."""

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

    def _count(self, fwd: np.ndarray, picked: np.ndarray, bwd: np.ndarray) -> None:
        """Add a round trip to the stats from its result: each command and
        the answer to each fresh one are sent, a packet whose arrival time
        is not NaN is delivered, and every other one is dropped."""
        for direction, t in ((FORWARD, fwd), (BACKWARD, bwd[picked])):
            stats, landed = self.stats[direction], int(np.count_nonzero(t == t))
            stats.sent += len(t)
            stats.delivered += landed
            stats.dropped += len(t) - landed


# draws kept for reuse by seed while a shared_draws() block is open
_SHARED_DRAWS: ContextVar[dict | None] = ContextVar("shared_draws", default=None)


@contextmanager
def shared_draws() -> Iterator[None]:
    """Within the block, impaired channels with the same seed share their
    random draws: each stream is drawn once and kept as an array, without
    its generator; topology channels share their flows' phase draws the
    same way. A search opens one block, so trials at different loop times
    reuse the draws of their common seeds. A block opened inside another
    uses the one already open."""
    token = _SHARED_DRAWS.set({}) if _SHARED_DRAWS.get() is None else None
    try:
        yield
    finally:
        if token is not None:
            _SHARED_DRAWS.reset(token)


def _shared(kind: object) -> dict | None:
    """The values kept for kind in the open shared_draws() block, by seed,
    or None outside a block."""
    shared = _SHARED_DRAWS.get()
    return None if shared is None else shared.setdefault(kind, {})


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
    numpy (both correctly rounded) and the libm calls through math and cmath
    (numpy's vector log, cos and sin can differ in the last bit). A pair's
    cosine and sine are the two parts of one cmath.exp(complex(0.0, angle)),
    which takes exp(0.0) * cos(angle) and exp(0.0) * sin(angle) from the
    libm, and exp(0.0) is exactly 1. rng.gauss(mu, sigma) is mu + z * sigma."""
    half = u[..., 0::2].shape
    angles = np.zeros(half, complex)
    angles.imag = u[..., 0::2] * _TWOPI
    turns = np.fromiter(map(cmath.exp, angles.ravel().tolist()), complex, angles.size)
    logs = np.fromiter(map(math.log, (1.0 - u[..., 1::2]).ravel().tolist()), float, angles.size)
    g2rad = np.sqrt(-2.0 * logs)
    z = np.empty(u.shape)
    z[..., 0::2] = (turns.real * g2rad).reshape(half)
    z[..., 1::2] = (turns.imag * g2rad).reshape(half)
    return z


def _tries_per_value(mu: float, sigma: float) -> float:
    """The expected normals a truncated normal value takes, (1 - (1 - p)^64)
    / p for p the chance of a non-negative one."""
    p = 0.5 * math.erfc(-mu / (sigma * math.sqrt(2.0))) if sigma > 0.0 else float(mu >= 0.0)
    return 64.0 if p == 0.0 else 1.0 if p == 1.0 else -math.expm1(64 * math.log1p(-p)) / p


def _draw_streams(seeds: Sequence[int], jitter: Jitter | None, size: int) -> list[np.ndarray]:
    """The first `size` values of the stream (seed, jitter) of each seed,
    drawn together in bulk, bit for bit those of a loop that calls a
    Random(seed) once per value: random() for drops (jitter None),
    uniform(0, a) or gauss(mu, sigma) for jitter, where a truncated normal
    redraws a negative value up to 64 times, then gives 0.

    Each stream's normals come in one chunk of the expected number of tries
    plus a margin. A try ends a value when it lies a multiple of 64 tries
    after the last non-negative one (0 at a non-negative try itself; the
    stream starts as if after one): the value is the try, or 0.0 where it
    is negative. A stream whose chunk ends fewer than `size` values is drawn
    again from its seed, with a chunk twice as long."""
    if jitter is None or jitter.kind == "uniform":
        u = _uniforms([Random(seed) for seed in seeds], size)
        return list(u if jitter is None else jitter.a * u)  # uniform(0, a): 0.0 + (a - 0.0) * random()
    mu, sigma = jitter.mu, jitter.sigma
    out: dict[int, np.ndarray] = {}
    todo = list(range(len(seeds)))
    pairs = math.ceil((size * _tries_per_value(mu, sigma) * 1.1 + 16) / 2)
    while todo:
        v = mu + _box_muller(_uniforms([Random(seeds[i]) for i in todo], 2 * pairs)) * sigma
        kept = v >= 0.0  # -0.0 too, kept as it is
        cols = np.arange(2 * pairs)
        since = cols - np.maximum.accumulate(np.where(kept, cols, -1), axis=1)
        ends = (since & 63) == 0
        count = np.cumsum(ends, axis=1)
        whole = count[:, -1] >= size
        vals = v[ends & (count <= size) & whole[:, None]]
        vals[vals < 0.0] = 0.0
        out.update(zip(np.array(todo)[whole].tolist(), vals.reshape(-1, size)))
        todo, pairs = [i for i, w in zip(todo, whole.tolist()) if not w], 2 * pairs
    return [out[i] for i in range(len(seeds))]


def _cache(streams: dict, jitter: Jitter | None) -> dict:
    """The streams (seed, jitter) drawn so far, by seed: those kept in the
    open shared_draws() block, else in streams (by jitter, then seed)."""
    cache = _shared(jitter)
    return streams.setdefault(jitter, {}) if cache is None else cache


def _read(streams: dict, seeds: list[int], row_key: np.ndarray, jitter: Jitter | None,
          pos: np.ndarray, n: int) -> np.ndarray:
    """The n values from position pos[r] of row r's stream (seeds[row_key[r]],
    jitter): drop uniforms (jitter None) or jitter values, from _cache.
    Streams too short for the farthest read are drawn by one _draw_streams
    call, each seed once, at least twice as long as they were and 16 at
    first, and their values repeat exactly."""
    cache = _cache(streams, jitter)
    need = int(pos.max()) + n
    held = [cache.get(s) for s in seeds]
    todo = [k for k, v in enumerate(held) if v is None or len(v) < need]
    if todo:
        size = max(16, need, *(2 * len(held[k]) for k in todo if held[k] is not None))
        for k, values in zip(todo, _draw_streams([seeds[k] for k in todo], jitter, size)):
            held[k] = cache[seeds[k]] = values
    starts = np.cumsum([0] + [len(v) for v in held[:-1]])
    return np.concatenate(held)[(starts[row_key] + pos)[:, None] + np.arange(n)]


class ImpairedBlock:
    """Impaired channels of one model as the rows of one block, one per
    trial seed (rows may share one), with no channel object per row: row r
    draws and decides exactly what ImpairedChannel(model, seeds[r]) would.
    The state is arrays by direction d (0: forward, 1: backward) and row:
    the packets sent (the drop stream's position, and the send index
    drop_seq counts), the packets kept (the jitter stream's position), the
    last delivery and the time each row's transmitter frees up (read only
    where a link has bandwidth). Seed s draws direction d's drops from
    Random(4s + 2d), its jitter from Random(4s + 2d + 1)."""

    def __init__(self, model: ChannelModel, seeds: Sequence[int]) -> None:
        self.params = (model.forward, model.backward)
        # integer seed derivation only: string/tuple seeding would go through
        # the per-process randomized hash and break reproducibility
        seeds = list(map(int, seeds))
        keys = {s: k for k, s in enumerate(dict.fromkeys(seeds))}
        check_seed(min(keys, default=0))
        self.row_key = np.fromiter(map(keys.__getitem__, seeds), np.intp, len(seeds))
        # by direction, the streams of each distinct seed: drops, then jitter
        self.seeds = [([4 * s + d for s in keys], [4 * s + d + 1 for s in keys]) for d in (0, 2)]
        rows = len(self.row_key)
        self.sent, self.kept = np.zeros((2, 2, rows), dtype=np.int64)
        self.last = np.full((2, rows), -1.0)
        self.free_at = np.zeros((2, rows))
        self.streams: dict = {}  # by kind, then seed, outside a shared_draws() block

    def __len__(self) -> int:
        return len(self.row_key)

    def read(self, d: int, jitter: Jitter | None, pos: np.ndarray, n: int) -> np.ndarray:
        """n values of each row's drop (jitter None) or jitter stream in direction d from pos."""
        seeds = self.seeds[d][jitter is not None]
        return _read(self.streams, seeds, self.row_key, jitter, pos, n)

    def value(self, d: int, jitter: Jitter | None, pos: int) -> float:
        """Row 0's value at pos of its drop (jitter None) or jitter stream in direction d."""
        cache, seed = _cache(self.streams, jitter), self.seeds[d][jitter is not None][0]
        if len(cache.get(seed, ())) <= pos:
            self.read(d, jitter, np.array([pos]), 1)  # draws the stream longer
        return cache[seed].item(pos)

    def carry(self, direction: str, t: np.ndarray, sent: np.ndarray | None,
              size_b: int) -> np.ndarray:
        """transit_time over the rows in one direction: row r sends at the
        times t[r] where sent[r] is set (any columns, None: all), in time
        order, and gets its delivery times in those columns, NaN where a
        packet is dropped or not sent, with transit_time's arithmetic, draws
        and state changes. A row's transmitter carries its kept packets
        (carry); its send indices (drop_seq) and drop uniforms go to its
        sends in order, its jitter to its kept packets (_in_columns); the FIFO
        clamp is a running maximum (fmax skips NaN) and the last delivery.
        A mask that sends every column is None, whose path skips the scatters."""
        rows, n = t.shape
        if not n:
            return np.empty((rows, 0))
        if sent is not None and sent.all():
            sent = None
        d = 0 if direction == FORWARD else 1
        p = self.params[d]
        kept = sent  # None: every packet sent and kept
        if p.drop_seq:
            listed = np.isin(np.arange(n) + self.sent[d, :, None], list(p.drop_seq))
            kept = ~listed if kept is None else kept & ~_in_columns(listed, kept)
        if p.drop_prob > 0.0:  # a uniform never falls below drop_prob 0
            # one uniform per packet, listed in drop_seq or not, so drop
            # decisions nest across drop_prob settings under a shared seed
            lost = _in_columns(self.read(d, None, self.sent[d], n), sent) < p.drop_prob
            kept = ~lost if kept is None else kept & ~lost
        if p.bandwidth_bps > 0.0:  # bandwidth 0 has no transmitter to queue behind
            ser = serialization_ms(size_b, p.bandwidth_bps)
            t = t.copy()
            for r in range(rows):
                at = slice(None) if kept is None else kept[r]
                t[r, at], self.free_at[d, r] = carry(t[r, at], ser, self.free_at.item(d, r))
        delay = p.latency_ms
        if p.jitter.kind != "none":  # jitter 'none' draws nothing
            delay = delay + _in_columns(self.read(d, p.jitter, self.kept[d], n), kept)
        out = t + delay
        if kept is not None:
            out[~kept] = np.nan
        if p.fifo:
            out = np.fmax.accumulate(out, axis=1)
            np.maximum(out, self.last[d, :, None], out=out)
        # each row's last delivery: its last kept packet's
        at = n - 1 if kept is None else n - 1 - kept[:, ::-1].argmax(axis=1)
        carried = n if kept is None else kept.sum(axis=1)
        self.last[d] = np.where(carried > 0, out[np.arange(rows), at], self.last[d])
        self.sent[d] += n if sent is None else sent.sum(axis=1)
        self.kept[d] += carried
        if p.fifo and kept is not None:
            out[~kept] = np.nan
        return out

    def round_trips(self, sends: np.ndarray, size_b: int, drain_at: float | np.ndarray):
        """ChannelRows.round_trips over the rows, bit for bit their channels'; an
        answer leaves from its command's column (no periodic source: drain_at unread)."""
        rows, n = len(self), np.shape(sends)[-1]
        fwd = self.carry(FORWARD, np.broadcast_to(sends, (rows, n)), None, size_b)
        picked = _fresh_mask(fwd)
        return fwd, picked, self.carry(BACKWARD, fwd, picked, size_b)


class ChannelRows:
    """Simulated channels of any kinds as the rows of one block, one
    channel per row."""

    def __init__(self, channels: Sequence[SimChannel]) -> None:
        self.channels = list(channels)

    def __len__(self) -> int:
        return len(self.channels)

    def round_trips(self, sends: np.ndarray, size_b: int, drain_at: float | np.ndarray):
        """Each row's round_trip as (rows x sends) blocks: row r sends at
        sends[r] and drains at drain_at[r] (one row of sends, or one
        drain_at, serves every row). The channels run one at a time, each
        seed's streams drawn once for the call, and each row is copied into
        the blocks before the next runs (a round trip may return views of
        larger arrays, which the blocks must not keep alive)."""
        rows = len(self)
        sends = np.broadcast_to(sends, (rows, np.shape(sends)[-1]))
        drains = np.broadcast_to(drain_at, rows).tolist()
        fwd, bwd = np.empty(sends.shape), np.empty(sends.shape)
        picked = np.empty(sends.shape, dtype=bool)
        with shared_draws():
            for r, channel in enumerate(self.channels):
                fwd[r], picked[r], bwd[r] = channel.round_trip(sends[r], size_b, drains[r])
        return fwd, picked, bwd


class ImpairedChannel(SimChannel):
    """Parametric lossy/jittery link pair, an ImpairedBlock of one: driven
    by the virtual clock a packet at a time (transit_time), or running a
    round trip (round_trip).

    Deterministic per seed: each direction owns independent RNG streams for
    drops and jitter so that raising drop_prob with a fixed seed only adds
    drops (the drop decisions nest). The streams are seeded at first use.
    """

    def __init__(self, model: ChannelModel, seed: int) -> None:
        super().__init__()
        self.model = model
        self.seed = int(seed)
        self.block = ImpairedBlock(model, [self.seed])

    def transit_time(self, direction: str, size_b: int, t_now: float) -> float | None:
        """Decide drop/delivery for one packet; returns the delivery time or
        None when dropped. Advances per-direction state: the block's row,
        as its carry of a row of one packet does, read and written as
        Python numbers."""
        block, stats = self.block, self.stats[direction]
        d = 0 if direction == FORWARD else 1
        p = block.params[d]
        sent = block.sent.item(d, 0)
        block.sent[d, 0] = sent + 1
        stats.sent += 1
        # one uniform per packet, listed in drop_seq or not, so drop
        # decisions nest across drop_prob settings under a shared seed
        if sent in p.drop_seq or (p.drop_prob > 0.0 and block.value(d, None, sent) < p.drop_prob):
            stats.dropped += 1
            return None
        kept = block.kept.item(d, 0)
        block.kept[d, 0] = kept + 1
        delay = p.latency_ms + (0.0 if p.jitter.kind == "none" else
                                block.value(d, p.jitter, kept))
        t_sent = t_now
        if p.bandwidth_bps > 0.0:  # carry's step for one packet
            free_at = block.free_at.item(d, 0)
            start = free_at if free_at > t_now else t_now
            t_sent = start + serialization_ms(size_b, p.bandwidth_bps)
            block.free_at[d, 0] = t_sent
        t_deliver = max(t_sent + delay, block.last.item(d, 0)) if p.fifo else t_sent + delay
        block.last[d, 0] = t_deliver
        return t_deliver

    def round_trip(self, sends: np.ndarray, size_b: int, drain_at: float):
        """SimChannel.round_trip as its block's round trip."""
        out = tuple(b[0] for b in self.block.round_trips(sends, size_b, drain_at))
        self._count(*out)
        return out

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
        import socket
        import threading

        self.packet_size_b = packet_size_b
        self._remote = remote
        self._rng = Random(seed)
        self._rng_lock = threading.Lock()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self._sock.bind(local)
        except OSError:
            self._sock.close()
            raise

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
            except TimeoutError:
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
