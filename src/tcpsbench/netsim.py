"""Discrete-event store-and-forward network with CBR cross traffic.

A topology is a set of switches joined by propagation-delay/bandwidth links;
hosts hang off switches over ideal access links. Every packet (tactile or
cross-traffic) queues FIFO per directed link behind earlier departures, pays
the serialization time for its size, then the propagation delay. Exposed as
a bidirectional channel between the two tactile endpoints so control-loop
experiments can run across any placement under any traffic load.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from random import Random
from typing import Callable

from .clock import EventScheduler, PRIO_DELIVERY
from .core import TcpsbenchError
from .transport import BACKWARD, FORWARD, DirectionStats, LinkQueue, SimChannel


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

    Cross-traffic flows emit packets on deterministic CBR schedules (one
    seeded phase offset per flow, stable under flow-set changes) into the
    same virtual clock as the control loop, so queueing interactions are
    exact. Randomness across trials comes solely from the phase offsets.
    """

    def __init__(self, topology: Topology, flows: tuple[TrafficFlow, ...],
                 seed: int, queue_cap: int | None = None) -> None:
        super().__init__()
        self.flows = flows
        self.seed = seed
        self._routes = {
            FORWARD: route(topology, topology.te_master, topology.te_slave),
            BACKWARD: route(topology, topology.te_slave, topology.te_master),
        }
        self._flow_routes = {}
        for fl in flows:
            key = (fl.src, fl.dst)
            if key not in self._flow_routes:
                self._flow_routes[key] = route(topology, fl.src, fl.dst)
        # one output queue per directed link; the first of parallel links wins,
        # as in Topology.link_between
        self._queues: dict[tuple[str, str], LinkQueue] = {}
        for ln in topology.links:
            for hop in ((ln.a, ln.b), (ln.b, ln.a)):
                if hop not in self._queues:
                    self._queues[hop] = LinkQueue(ln.bandwidth_bps, ln.delay_ms, queue_cap)
        self._draining = False

    def bind(self, scheduler: EventScheduler) -> None:
        super().bind(scheduler)
        self._draining = False
        for idx, fl in enumerate(self.flows):
            if fl.rate_bps <= 0.0:
                continue
            # phase derived from (seed, flow index) so adding a flow never
            # perturbs the schedules of existing ones
            phase = Random(self.seed * 1_000_003 + idx).uniform(0.0, fl.period_ms)
            self._schedule_emission(fl, phase)

    def _schedule_emission(self, fl: TrafficFlow, t: float) -> None:
        assert self._sched is not None

        def emit() -> None:
            if self._draining:
                return
            hops = self._flow_routes[(fl.src, fl.dst)]
            self._forward_packet(hops, 0, fl.pkt_bytes, None)
            self._schedule_emission(fl, t + fl.period_ms)

        self._sched.schedule(t, emit, PRIO_DELIVERY)

    def _forward_packet(self, hops: list[tuple[str, str]], hop_idx: int,
                        size_bytes: int, deliver: Callable[[], None] | None,
                        stats: DirectionStats | None = None) -> None:
        """Advance one packet across its next link; schedules the following
        hop (or final delivery) at the computed arrival time. A tail drop
        counts in `stats` when the packet is a tactile one."""
        assert self._sched is not None
        if hop_idx >= len(hops):
            if deliver is not None:
                deliver()
            return
        arrival = self._queues[hops[hop_idx]].admit(self._sched.now, size_bytes)
        if arrival is None:
            if stats is not None:
                stats.dropped += 1
            return
        self._sched.schedule(
            arrival,
            lambda: self._forward_packet(hops, hop_idx + 1, size_bytes, deliver, stats),
            PRIO_DELIVERY,
        )

    def _carry(self, direction: str, size_b: int, deliver: Callable[[], None]) -> None:
        stats = self.stats[direction]
        stats.sent += 1
        self._forward_packet(self._routes[direction], 0, size_b, deliver, stats)

    def begin_drain(self) -> None:
        self._draining = True


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
    chan = NetsimChannel(topology, tuple(flows), seed, queue_cap)
    sched = EventScheduler()
    chan.bind(sched)
    src_sw = topology.host_switch(src) if src else topology.te_master
    dst_sw = topology.host_switch(dst) if dst else topology.te_slave
    hops = route(topology, src_sw, dst_sw)
    result: list[float] = []

    def inject() -> None:
        chan._forward_packet(hops, 0, pkt_bytes, lambda: result.append(sched.now))

    sched.schedule(t_send, inject, PRIO_DELIVERY)
    sched.run(stop=lambda: bool(result))
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
