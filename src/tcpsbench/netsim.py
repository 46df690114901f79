"""Store-and-forward network with CBR cross traffic.

A topology is a set of switches joined by propagation-delay/bandwidth links;
hosts hang off switches over ideal access links. Every packet (tactile or
cross-traffic) queues FIFO per directed link behind earlier departures, pays
the serialization time for its size, then the propagation delay. A round
trip of tactile packets, with or without cross traffic, runs off the clock:
each link admits everything it carries in one batch, through the FIFO
(Lindley) recurrence of the shared link queue, with the links in the order
in which packets flow between them. Exposed as a bidirectional channel
between the two tactile endpoints so control-loop experiments can run
across any placement under any traffic load.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from random import Random
from typing import Iterable

import numpy as np

from .core import TcpsbenchError
from .transport import BACKWARD, FORWARD, LinkQueue, SimChannel, _fresh_mask


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
        # a finite rate gives every hop a time on the wire, so a packet never
        # lands at the instant it entered a link
        if not (0.0 <= self.delay_ms < math.inf and 0.0 < self.bandwidth_bps < math.inf):
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
        if not 0.0 <= self.rate_bps < math.inf:
            raise TopologyError("flow rate must be finite and >= 0")
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


# plans by (id(topology), flows, queue_cap). A plan is a pure function of
# its key and is only read, so sharing it changes no result; each entry holds
# its topology, so the id cannot be reused while the plan is kept
_PLANS: dict[tuple, tuple] = {}


def _plan(topology: Topology, flows: tuple[TrafficFlow, ...], queue_cap: int | None) -> tuple:
    """What a channel needs of its topology, flows and queue cap, built once
    for every trial on them: the tactile routes, the kept links, the
    simulated flows, each link's inputs and the order the links run in."""
    key = (id(topology), flows, queue_cap)
    if key in _PLANS:
        return _PLANS[key][1]
    routes = {
        FORWARD: route(topology, topology.te_master, topology.te_slave),
        BACKWARD: route(topology, topology.te_slave, topology.te_master),
    }
    flow_routes = {(fl.src, fl.dst): route(topology, fl.src, fl.dst) for fl in flows}
    # a link can delay a tactile packet if a tactile route crosses it, or if
    # a flow crosses it before reaching such a link; grow that set to a fixed
    # point, then simulate each flow up to its last link in the set
    kept = set(routes[FORWARD]) | set(routes[BACKWARD])

    def reach(hops: list[tuple[str, str]]) -> list[tuple[str, str]]:
        return hops[:max((i + 1 for i, hop in enumerate(hops) if hop in kept), default=0)]

    while not all(kept.issuperset(reach(hops)) for hops in flow_routes.values()):
        for hops in flow_routes.values():
            kept.update(reach(hops))
    # one output queue per kept directed link; the first of parallel links
    # wins, as in Topology.link_between
    links: dict[tuple[str, str], tuple[float, float]] = {}
    for ln in topology.links:
        for hop in ((ln.a, ln.b), (ln.b, ln.a)):
            if hop in kept and hop not in links:
                links[hop] = (ln.bandwidth_bps, ln.delay_ms)
    # streams: the simulated flows in flow order, then the commands and the
    # answers. At equal times a link takes cross traffic first, ordered by
    # (size, flow), then tactile packets
    sims = [(idx, fl, reach(flow_routes[(fl.src, fl.dst)])) for idx, fl in enumerate(flows)]
    sims = [(idx, fl, hops) for idx, fl, hops in sims if fl.rate_bps > 0.0 and hops]
    paths = [hops for *_, hops in sims] + [routes[FORWARD], routes[BACKWARD]]
    ties = [(0, fl.pkt_bytes) for _, fl, _ in sims] + [(1, 0), (1, 0)]
    inputs: dict = {hop: [] for hop in links}
    for s, hops in enumerate(paths):
        for j, hop in enumerate(hops):
            inputs[hop].append((s, j))
    for chunks in inputs.values():
        chunks.sort(key=lambda c: (ties[c[0]], c[0]))
    # link u runs before v when a stream crosses u then v; the answers (None)
    # leave when the commands land. Groups of links that feed each other
    # (on rings) run in topological order, each group settling on its own
    after: dict = {v: set() for v in [*links, None] if v is None or inputs[v]}
    for hops in paths[:-2] + [routes[FORWARD] + [None] + routes[BACKWARD]]:
        for u, v in zip(hops, hops[1:]):
            after[u].add(v)
    reached = {}
    for v in after:
        reached[v], todo = {v}, [v]
        while todo:
            for w in after[todo.pop()] - reached[v]:
                reached[v].add(w)
                todo.append(w)
    order: list[list] = []
    for v in sorted(after, key=lambda v: sum(v in r for r in reached.values())):
        group = [u for u in after if u in reached[v] and v in reached[u]]
        if group not in order:
            order.append(group)
    plan = (routes, links, [(idx, fl.period_ms, fl.pkt_bytes) for idx, fl, _ in sims], paths,
            inputs, order)
    if len(_PLANS) >= 8:
        _PLANS.clear()
    _PLANS[key] = (topology, plan)
    return plan


class NetsimChannel(SimChannel):
    """Topology-backed bidirectional channel for the tactile endpoints.

    A simulated run is one value-free round trip, off the clock: every link
    admits all the packets it carries in one batch (LinkQueue.carry), the
    links running in the order in which packets flow between them, and a
    group of links that feed each other (on a ring) sweeping until no input
    changes. Cross-traffic flows emit packets on deterministic CBR schedules
    (one seeded phase offset per flow, stable under flow-set changes) up to
    the drain time; only flows that can delay a tactile packet are
    simulated, and randomness across trials comes solely from the phases.
    """

    def __init__(self, topology: Topology, flows: tuple[TrafficFlow, ...],
                 seed: int, queue_cap: int | None = None) -> None:
        super().__init__()
        self._routes, links, sims, self._paths, self._inputs, self._order = _plan(
            topology, flows, queue_cap)
        self._queues = {hop: LinkQueue(bw, delay, queue_cap) for hop, (bw, delay) in links.items()}
        # each simulated flow's first emission, period and size; the phase
        # comes from (seed, flow index), so adding a flow never perturbs the others
        self._emitters = [(Random(seed * 1_000_003 + idx).uniform(0.0, period), period, size_b)
                          for idx, period, size_b in sims]
        self._picked = np.empty(0, dtype=bool)  # the commands the far end last answered

    def round_trip(self, sends: np.ndarray, size_b: int, drain_at: float):
        """SimChannel.round_trip, computed by _run."""
        arrivals = self._run(sends, size_b, drain_at)
        fwd, answers = arrivals[-2][-1], arrivals[-1][-1]
        picked = self._picked
        bwd = np.full(len(fwd), np.nan)
        bwd[picked] = answers
        for direction, t in ((FORWARD, fwd), (BACKWARD, answers)):
            stats, landed = self.stats[direction], int(np.count_nonzero(t == t))
            stats.sent += len(t)
            stats.dropped += len(t) - landed
            stats.delivered += landed
        return fwd, picked, bwd

    def _run(self, sends: np.ndarray, size_b: int, drain_at: float) -> list[list[np.ndarray]]:
        """The arrival times of every stream's packets at each hop and past
        the last, NaN once lost. Flows emit at their CBR times at or before
        drain_at (summed left to right, as repeated t + period adds them),
        the flows of one period as the rows of one block. A group of links
        settles by sweeps from empty inputs: every hop takes more than 0 ms,
        so packets can only depend on earlier ones, and each sweep fixes at
        least one more hop latency of the run; the fixed point is unique."""
        sizes = [size for *_, size in self._emitters] + [size_b, size_b]
        arrivals = [[np.empty(0) for _ in range(len(hops) + 1)] for hops in self._paths]
        by_period: dict[float, list[int]] = {}
        for s, (_, period, _) in enumerate(self._emitters):
            by_period.setdefault(period, []).append(s)
        for period, streams in by_period.items():
            phases = [self._emitters[s][0] for s in streams]
            times = np.full((len(streams), max(int((drain_at - min(phases)) / period) + 3, 1)),
                            period)
            times[:, 0] = phases
            np.add.accumulate(times, axis=1, out=times)
            # a row's times never decrease, and pass drain_at within 3 more
            # periods than fit before it
            counts = np.count_nonzero(times <= drain_at, axis=1)
            for s, row, count in zip(streams, times, counts.tolist()):
                arrivals[s][0] = row[:count]
        arrivals[-2][0] = sends
        for group in self._order:
            while True:
                moved = False
                for hop in group:
                    moved |= self._admit(hop, arrivals, sizes, len(group) > 1)
                if not moved or len(group) == 1:
                    break
        return arrivals

    def _admit(self, hop: tuple[str, str] | None, arrivals: list, sizes: list[int],
               settle: bool) -> bool:
        """Run one link (None: the far end answers the fresh commands that
        have landed, whose mask it keeps for round_trip) on its current
        inputs. When settling a group, True if an output changed."""
        if hop is None:
            fwd = arrivals[-2][-1]
            self._picked = _fresh_mask(fwd)
            outs = [(arrivals[-1], 0, fwd[self._picked])]
        else:
            queue = self._queues[hop]
            queue.free_at, queue.departures = 0.0, []
            chunks = self._inputs[hop]
            ins = [arrivals[s][j] for s, j in chunks]
            ser = [queue.serialization_ms(sizes[s]) for s, _ in chunks]
            a = np.concatenate(ins) if len(ins) > 1 else ins[0]
            landed = np.count_nonzero(a == a)  # NaN: lost upstream
            if len(ins) == 1 and landed == len(a):  # one time-sorted stream
                done = queue.carry(a, ser[0])
            else:
                # by time, ties in chunk order; the lost packets sort last
                order = np.argsort(a, kind="stable")[:landed]
                done = np.full(len(a), np.nan)
                done[order] = queue.carry(a[order], np.repeat(ser, [len(t) for t in ins])[order])
            outs, at = [], 0
            for (s, j), t in zip(chunks, ins):
                outs.append((arrivals[s], j + 1, done[at:at + len(t)]))
                at += len(t)
        moved = settle and any(not np.array_equal(out, path[j], equal_nan=True)
                               for path, j, out in outs)
        for path, j, out in outs:
            path[j] = out
        return moved


def channel_from_topology(topology: Topology, flows: tuple[TrafficFlow, ...] | list[TrafficFlow],
                          seed: int, queue_cap: int | None = None) -> NetsimChannel:
    return NetsimChannel(topology, tuple(flows), seed, queue_cap)


def check_flow_hosts(topology: Topology, flows: Iterable[TrafficFlow]) -> None:
    """Raises TopologyError unless both ends of every flow are nodes of topology."""
    for f in flows:
        topology.host_switch(f.src), topology.host_switch(f.dst)


def pair_flows(n_pairs: int, rate_bps: float, pkt_bytes: int = 64) -> tuple[TrafficFlow, ...]:
    """Bidirectional CBR flows between host pairs m0<->n0 .. m{n-1}<->n{n-1};
    the bundled topology attaches the m* hosts at the master switch and the
    n* hosts at the slave switch, loading the tactile route end to end."""
    flows: list[TrafficFlow] = []
    for i in range(n_pairs):
        a, b = f"m{i}", f"n{i}"
        flows.append(TrafficFlow(src=a, dst=b, rate_bps=rate_bps, pkt_bytes=pkt_bytes))
        flows.append(TrafficFlow(src=b, dst=a, rate_bps=rate_bps, pkt_bytes=pkt_bytes))
    return tuple(flows)


def simulate_delivery(topology: Topology, flows: tuple[TrafficFlow, ...] | list[TrafficFlow],
                      pkt_bytes: int, t_send: float, seed: int = 0,
                      src: str | None = None, dst: str | None = None,
                      queue_cap: int | None = None) -> float:
    """One-shot delivery time of a single packet injected at t_send, with
    cross traffic from time zero. The flows emit up to a horizon that
    doubles until the packet lands, or is dropped, at or before it; later
    emissions reach every link after that, so the answer is exact."""
    placed = replace(topology,
                     te_master=topology.host_switch(src) if src else topology.te_master,
                     te_slave=topology.host_switch(dst) if dst else topology.te_slave)
    chan = NetsimChannel(placed, tuple(flows), seed, queue_cap)
    horizon = 2.0 * t_send + 1.0
    while True:
        hops = [float(t[0]) for t in chan._run(np.array([t_send]), pkt_bytes, horizon)[-2]]
        if [t for t in hops if t == t][-1] <= horizon:
            break
        horizon *= 2.0
    if hops[-1] != hops[-1]:
        raise Unreachable("packet was never delivered (tail-dropped or unroutable)")
    return hops[-1]


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
