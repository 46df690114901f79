"""Store-and-forward network with CBR cross traffic.

A topology is a set of switches joined by propagation-delay/bandwidth links;
hosts hang off switches over ideal access links. Every packet (tactile or
cross-traffic) queues FIFO per directed link behind earlier departures, pays
the serialization time for its size, then the propagation delay. Under cross
traffic, tactile packets hop as virtual-clock events, and the cross traffic
stays off the clock and is run lazily through each link's FIFO recurrence;
without it, a whole batch of tactile sends crosses each hop at once, off the
clock. Exposed as a bidirectional channel between the two tactile endpoints
so control-loop experiments can run across any placement under any traffic
load.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import repeat
from random import Random
from typing import Callable

import numpy as np

from .clock import EventScheduler, PRIO_DELIVERY
from .core import TcpsbenchError
from .transport import BACKWARD, FORWARD, ChannelClosed, DirectionStats, LinkQueue, SimChannel


class Unreachable(TcpsbenchError):
    pass


class TopologyError(TcpsbenchError):
    pass


@dataclass(frozen=True)
class Link:
    a: str
    b: str
    delay_ms: float = 0.1
    bandwidth_bps: float = 10_000_000.0

    def __post_init__(self) -> None:
        if self.delay_ms < 0.0 or self.bandwidth_bps <= 0.0:
            raise TopologyError(f"bad link parameters on {self.a}-{self.b}")


@dataclass(frozen=True)
class TrafficFlow:
    """Open-loop constant-bit-rate stream between two hosts."""

    src: str
    dst: str
    rate_bps: float
    pkt_bytes: int = 1250

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise TopologyError("flow endpoints must differ")
        if self.rate_bps < 0.0:
            raise TopologyError("flow rate must be >= 0")
        if self.pkt_bytes < 1:
            raise TopologyError("flow packets must be at least 1 byte")

    @property
    def period_ms(self) -> float:
        return self.pkt_bytes * 8.0 / self.rate_bps * 1000.0


@dataclass(frozen=True)
class Topology:
    """Switch graph with host attachments and the two tactile endpoints.

    Host-to-switch access links are ideal (zero delay, infinite rate), so
    hosts inject directly into their switch's output queues.
    """

    switches: tuple[str, ...]
    links: tuple[Link, ...]
    hosts: dict[str, str]
    te_master: str
    te_slave: str

    def __post_init__(self) -> None:
        if len(set(self.switches)) != len(self.switches):
            raise TopologyError("duplicate switch ids")
        known = set(self.switches)
        for ln in self.links:
            if ln.a not in known or ln.b not in known:
                raise TopologyError(f"link {ln.a}-{ln.b} references unknown switch")
        for host, sw in self.hosts.items():
            if sw not in known:
                raise TopologyError(f"host {host} attached to unknown switch {sw}")
        for te in (self.te_master, self.te_slave):
            if te not in known:
                raise TopologyError(f"tactile endpoint switch {te} unknown")
        # connectivity over the switch graph
        adj = self.adjacency()
        seen = {self.switches[0]}
        frontier = [self.switches[0]]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        if seen != known:
            raise TopologyError("switch graph is not connected")

    def adjacency(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {s: [] for s in self.switches}
        for ln in self.links:
            adj[ln.a].append(ln.b)
            adj[ln.b].append(ln.a)
        for u in adj:
            adj[u].sort()
        return adj

    def link_between(self, u: str, v: str) -> Link:
        for ln in self.links:
            if {ln.a, ln.b} == {u, v}:
                return ln
        raise Unreachable(f"no link {u}-{v}")

    def host_switch(self, node: str) -> str:
        if node in self.hosts:
            return self.hosts[node]
        if node in self.switches:
            return node
        raise TopologyError(f"unknown node {node!r}")


def route(topology: Topology, a: str, b: str) -> list[tuple[str, str]]:
    """Deterministic loop-free minimum-hop path between two switches (or the
    switches the given hosts attach to); ties broken by the smallest
    lexicographic node-id sequence. Returns directed (u, v) link hops."""
    src = topology.host_switch(a)
    dst = topology.host_switch(b)
    if src == dst:
        return []
    adj = topology.adjacency()
    best: dict[str, tuple[int, tuple[str, ...]]] = {}
    heap: list[tuple[int, tuple[str, ...]]] = [(0, (src,))]
    while heap:
        hops, path = heapq.heappop(heap)
        node = path[-1]
        if node in best and best[node] <= (hops, path):
            continue
        best[node] = (hops, path)
        if node == dst:
            return [(path[i], path[i + 1]) for i in range(len(path) - 1)]
        for nxt in adj[node]:
            if nxt in path:
                continue
            heapq.heappush(heap, (hops + 1, path + (nxt,)))
    raise Unreachable(f"no route from {src} to {dst}")


class NetsimChannel(SimChannel):
    """Topology-backed bidirectional channel for the tactile endpoints.

    Tactile packets cross the topology hop by hop as virtual-clock events,
    or, on a channel with no flow to simulate, as one batch of sends per
    hop (carry): there each direction's route is a chain of FIFO link
    queues that only its own packets use. Cross-traffic flows emit packets
    on deterministic CBR schedules (one seeded phase offset per flow, stable
    under flow-set changes) off the clock: before a tactile packet enters a
    link at time t, the channel runs the cross traffic up to t, arrivals at
    exactly t first, through the same `LinkQueue`s, so queueing
    interactions stay exact. Only flows that can delay a tactile packet are
    simulated. Randomness across trials comes solely from the phase offsets.
    """

    def __init__(self, topology: Topology, flows: tuple[TrafficFlow, ...],
                 seed: int, queue_cap: int | None = None) -> None:
        super().__init__()
        self._routes = {
            FORWARD: route(topology, topology.te_master, topology.te_slave),
            BACKWARD: route(topology, topology.te_slave, topology.te_master),
        }
        flow_routes = {(fl.src, fl.dst): route(topology, fl.src, fl.dst) for fl in flows}
        # a link can delay a tactile packet if a tactile route crosses it, or
        # if a flow crosses it before reaching such a link; grow that set to a
        # fixed point, then simulate each flow up to its last link in the set
        kept = set(self._routes[FORWARD]) | set(self._routes[BACKWARD])

        def reach(hops: list[tuple[str, str]]) -> list[tuple[str, str]]:
            return hops[:max((i + 1 for i, hop in enumerate(hops) if hop in kept), default=0)]

        while not all(kept.issuperset(reach(hops)) for hops in flow_routes.values()):
            for hops in flow_routes.values():
                kept.update(reach(hops))
        # one output queue per kept directed link; the first of parallel links
        # wins, as in Topology.link_between
        self._queues: dict[tuple[str, str], LinkQueue] = {}
        for ln in topology.links:
            for hop in ((ln.a, ln.b), (ln.b, ln.a)):
                if hop in kept and hop not in self._queues:
                    self._queues[hop] = LinkQueue(ln.bandwidth_bps, ln.delay_ms, queue_cap)
        # unprocessed cross arrivals (time, size_b, tag) wait at a link in
        # time-sorted streams, one per upstream link and one (None) for the
        # flows that start there. A packet at hop j of its flow carries tag
        # slot + j; _next_stream maps it to the stream it joins next, if any.
        # Each emitter holds a flow's next emission not yet in a stream, its
        # period, size, tag and stream; the phase comes from (seed, flow
        # index), so adding a flow never perturbs the others
        streams: dict[tuple[tuple[str, str], tuple[str, str] | None], list] = {}
        self._next_stream: list[list | None] = []
        self._emitters: list[list] = []
        self._width = self._span = math.inf
        for idx, fl in enumerate(flows):
            hops = reach(flow_routes[(fl.src, fl.dst)])
            if fl.rate_bps <= 0.0 or not hops:
                continue
            phase = Random(seed * 1_000_003 + idx).uniform(0.0, fl.period_ms)
            self._emitters.append([phase, fl.period_ms, fl.pkt_bytes, len(self._next_stream),
                                   streams.setdefault((hops[0], None), [])])
            self._next_stream += [streams.setdefault(k, []) for k in zip(hops[1:], hops)] + [None]
            # refills add at least 64 emissions of the fastest flow
            self._span = min(self._span, 64 * fl.period_ms)
            for hop in hops:
                q = self._queues[hop]
                self._width = min(self._width, fl.pkt_bytes * 8.0 / q.bandwidth_bps * 1000.0
                                  + q.delay_ms)
        # a cross packet entering a link at a reaches the next one no sooner
        # than a + width; the 1% margin outweighs the rounding of the time
        # sums while simulated times stay below 1e13 widths
        self._width *= 0.99
        self._streams = list(streams.values())
        self._links: dict[tuple[str, str], tuple[LinkQueue, list]] = {}
        for (hop, _upstream), stream in streams.items():
            self._links.setdefault(hop, (self._queues[hop], []))[1].append(stream)
        self._drain_at = math.inf
        self._emit_at = self._idle_until = min([em[0] for em in self._emitters] + [math.inf])
        self.carries_batches = not self._emitters

    def _emit(self, t: float) -> None:
        """Append every emission up to t + _span, and none after the drain,
        to the stream of its first link."""
        until = min(t + self._span, self._drain_at)
        for em in self._emitters:
            nxt, period, size_b, tag, stream = em
            if nxt <= until:
                # two periods past until, so times[k] exists; a sequential
                # left fold, bit-identical to repeated nxt + period
                times = np.full(int((until - nxt) / period) + 3, period)
                times[0] = nxt
                np.add.accumulate(times, out=times)
                k = int(np.searchsorted(times, until, side="right"))
                stream.extend(zip(times[:k].tolist(), repeat(size_b), repeat(tag)))
                em[0] = float(times[k])
        for stream in {id(em[4]): em[4] for em in self._emitters}.values():
            stream.sort()
        self._emit_at = min(em[0] for em in self._emitters)

    def _advance(self, t: float) -> None:
        """Run cross traffic until every arrival at or before t has entered
        its link. Each pass admits one window, narrower than _width, on every
        link; departures land past its end, so links are independent within
        a pass, in any topology."""
        while True:
            if self._emit_at <= min(t, self._drain_at):
                self._emit(self._emit_at + self._width)
            start = min((s[0][0] for s in self._streams if s), default=math.inf)
            if start > t:
                self._idle_until = min(start, self._emit_at)
                return
            end = start + self._width
            cut = (end,) if end <= t else (t, math.inf)
            for queue, streams in self._links.values():
                batch = []
                for s in streams:
                    if s and s[0] < cut:
                        k = bisect_left(s, cut)
                        batch += s[:k]
                        del s[:k]
                batch.sort()
                queue.run(batch, self._next_stream)

    def _forward_packet(self, hops: list[tuple[str, str]], hop_idx: int, size_bytes: int,
                        deliver: Callable[[], None], stats: DirectionStats) -> None:
        """Advance one tactile packet across its next link; schedules the
        following hop (or final delivery) at the computed arrival time."""
        if hop_idx >= len(hops):
            deliver()
            return
        now = self._sched.now
        if now >= self._idle_until:
            self._advance(now)
        arrival = self._queues[hops[hop_idx]].admit(now, size_bytes)
        if arrival is None:
            stats.dropped += 1
            return
        self._sched.schedule(arrival, lambda: self._forward_packet(
            hops, hop_idx + 1, size_bytes, deliver, stats), PRIO_DELIVERY)

    def _carry(self, direction: str, size_b: int, deliver: Callable[[], None]) -> None:
        stats = self.stats[direction]
        stats.sent += 1
        self._forward_packet(self._routes[direction], 0, size_b, deliver, stats)

    def carry(self, direction: str, send_times: np.ndarray, size_b: int,
              reserve: int = 0) -> np.ndarray:
        """The delivery times of a time-sorted batch of sends, NaN where a
        packet is tail-dropped, as the clock gives them; one batch per hop.
        Only for a channel without flows: then no other packet shares a
        link, since a min-hop route visits nodes at growing distance from
        its source and the reverse route at shrinking distance, so the two
        directions never cross the same directed link. reserve is unused:
        the channel draws nothing."""
        if self._closed:
            raise ChannelClosed("channel is closed")
        if not self.carries_batches:
            raise TopologyError("cross traffic runs on the clock only")
        n = len(send_times)
        kept, t = np.arange(n), np.array(send_times, dtype=float)
        for hop in self._routes[direction]:
            t = self._queues[hop].carry(t, size_b)
            landed = t == t  # NaN is unequal to itself
            if not landed.all():
                kept, t = kept[landed], t[landed]
        stats = self.stats[direction]
        stats.sent += n
        stats.dropped += n - len(t)
        stats.delivered += len(t)  # send counts them as they land
        if len(t) == n:
            return t
        out = np.full(n, np.nan)
        out[kept] = t
        return out

    def begin_drain(self) -> None:
        """Stop the flows: later emissions never happen; emitted packets keep queueing."""
        self._drain_at = now = self._sched.now
        for *_, stream in self._emitters:
            del stream[bisect_left(stream, (now, math.inf)):]


def channel_from_topology(topology: Topology, flows: tuple[TrafficFlow, ...] | list[TrafficFlow],
                          seed: int, queue_cap: int | None = None) -> NetsimChannel:
    return NetsimChannel(topology, tuple(flows), seed, queue_cap)


def pair_flows(n_pairs: int, rate_bps: float, pkt_bytes: int = 64,
               a_prefix: str = "m", b_prefix: str = "n") -> tuple[TrafficFlow, ...]:
    """Bidirectional CBR flows between host pairs a0<->b0 .. a{n-1}<->b{n-1};
    the bundled topology attaches the m* hosts at the master switch and the
    n* hosts at the slave switch, loading the tactile route end to end."""
    flows: list[TrafficFlow] = []
    for i in range(n_pairs):
        a, b = f"{a_prefix}{i}", f"{b_prefix}{i}"
        flows.append(TrafficFlow(src=a, dst=b, rate_bps=rate_bps, pkt_bytes=pkt_bytes))
        flows.append(TrafficFlow(src=b, dst=a, rate_bps=rate_bps, pkt_bytes=pkt_bytes))
    return tuple(flows)


def simulate_delivery(topology: Topology, flows: tuple[TrafficFlow, ...] | list[TrafficFlow],
                      pkt_bytes: int, t_send: float, seed: int = 0,
                      src: str | None = None, dst: str | None = None,
                      queue_cap: int | None = None) -> float:
    """One-shot delivery time of a single packet injected at t_send, with
    cross traffic replayed from time zero. Fresh state per call."""
    placed = replace(topology,
                     te_master=topology.host_switch(src) if src else topology.te_master,
                     te_slave=topology.host_switch(dst) if dst else topology.te_slave)
    chan = NetsimChannel(placed, tuple(flows), seed, queue_cap)
    sched = EventScheduler()
    chan.bind(sched)
    result: list[float] = []
    sched.schedule(t_send, lambda: chan.send(FORWARD, None, pkt_bytes,
                                             lambda _: result.append(sched.now)))
    sched.run()
    if not result:
        raise Unreachable("packet was never delivered (tail-dropped or unroutable)")
    return result[0]


def closed_form_delivery(topology: Topology, pkt_bytes: int, t_send: float,
                         src: str | None = None, dst: str | None = None) -> float:
    """Traffic-free reference: per hop, serialization plus propagation,
    accumulated in route order (same arithmetic order as the simulator)."""
    src_sw = topology.host_switch(src) if src else topology.te_master
    dst_sw = topology.host_switch(dst) if dst else topology.te_slave
    t = t_send
    for u, v in route(topology, src_sw, dst_sw):
        ln = topology.link_between(u, v)
        t = t + pkt_bytes * 8.0 / ln.bandwidth_bps * 1000.0 + ln.delay_ms
    return t
