"""Store-and-forward network with CBR cross traffic.

A topology is a set of switches joined by propagation-delay/bandwidth links;
hosts hang off switches over ideal access links. Every packet (tactile or
cross-traffic) queues FIFO per directed link behind earlier departures, pays
the serialization time for its size, then the propagation delay. A round
trip of tactile packets, with or without cross traffic, runs off the clock:
each link carries all its packets in one batch, held in the order it
serves them, through the FIFO (Lindley) recurrence of transport.carry,
with the links in the order in which packets flow between them. Each
tactile hop's times are kept in command columns, an answer in its
command's column (NaN: never answered, or lost). Exposed as
a bidirectional channel between the two tactile endpoints so control-loop
experiments can run across any placement under any traffic load.
"""

from __future__ import annotations

import _random
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

import numpy as np

from .core import TcpsbenchError, check_packet_size, check_seed
from .transport import BACKWARD, FORWARD, SimChannel, _shared, carry, serialization_ms


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
        try:
            finite = self.rate_bps == 0.0 or math.isfinite(self.period_ms)
        except OverflowError:  # a packet size past the largest float
            finite = False
        if not finite:
            raise TopologyError(f"a flow of {self.pkt_bytes} B packets at {self.rate_bps!r} "
                                f"bps has no finite period")

    @property
    def period_ms(self) -> float:
        return serialization_ms(self.pkt_bytes, self.rate_bps)


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
            if host in known:  # host_switch would take it for the host, hiding the switch
                raise TopologyError(f"host id {host!r} is also a switch id")
            if sw not in known:
                raise TopologyError(f"host {host} attached to unknown switch {sw}")
        for te in (self.te_master, self.te_slave):
            if te not in known:
                raise TopologyError(f"tactile endpoint switch {te} unknown")
        if len(_walk(self.adjacency(), self.switches[0])) != len(known):
            raise TopologyError("switch graph is not connected")

    def adjacency(self) -> dict[str, list[str]]:
        adj: dict[str, list[str]] = {s: [] for s in self.switches}
        for ln in self.links:
            adj[ln.a].append(ln.b)
            adj[ln.b].append(ln.a)
        for u in adj:
            adj[u].sort()
        return adj

    @cached_property
    def hop_links(self) -> dict[tuple[str, str], Link]:
        """Each directed hop (u, v) mapped to the link that carries it: of
        parallel links, the first listed. In the order of self.links."""
        hops: dict[tuple[str, str], Link] = {}
        for ln in self.links:
            hops.setdefault((ln.a, ln.b), ln)
            hops.setdefault((ln.b, ln.a), ln)
        return hops

    def link_between(self, u: str, v: str) -> Link:
        try:
            return self.hop_links[(u, v)]
        except KeyError:
            raise Unreachable(f"no link {u}-{v}") from None

    def host_switch(self, node: str) -> str:
        if node in self.hosts:
            return self.hosts[node]
        if node in self.switches:
            return node
        raise TopologyError(f"unknown node {node!r}")


def _walk(adj: dict, start) -> dict:
    """Breadth-first walk of the graph adj (node -> neighbours) from start:
    each node reached, mapped to the node it was first reached from."""
    parent, queue = {start: None}, [start]
    for u in queue:
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def route(topology: Topology, a: str, b: str) -> list[tuple[str, str]]:
    """Deterministic loop-free minimum-hop path between two switches (or the
    switches the given hosts attach to); ties broken by the smallest
    lexicographic node-id sequence. Returns directed (u, v) link hops."""
    src = topology.host_switch(a)
    dst = topology.host_switch(b)
    # over sorted neighbours a node's first parent lies on its min-hop path
    # with the smallest node sequence
    parent = _walk(topology.adjacency(), src)
    hops = []
    while dst != src:
        hops.append((parent[dst], dst))
        dst = parent[dst]
    return hops[::-1]


# plans by (id(topology), flows). A plan is a pure function of its key and
# is only read, so sharing it changes no result; each entry holds its
# topology, so the id cannot be reused while the plan is kept
_PLANS: dict[tuple, tuple] = {}

_NO_TIMES = np.empty(0)
_NO_STREAMS = np.empty(0, dtype=np.intp)


def _plan(topology: Topology, flows: tuple[TrafficFlow, ...]) -> tuple:
    """What a channel needs of its topology and flows, built once for every
    trial on them at any queue cap: the tactile routes, the kept links, the
    simulated flows and their first links, the streams' tie ranks, what
    feeds each link, the tactile stream each link carries (and whether it
    carries nothing else), and the order the links run in."""
    key = (id(topology), flows)
    kept_plan = _PLANS.get(key)
    if kept_plan is not None:
        return kept_plan[1]
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
    # one transmitter per kept directed link, in the order of topology.links
    links = {hop: ln for hop, ln in topology.hop_links.items() if hop in kept}
    # streams: the simulated flows in flow order, then the commands and the
    # answers. At equal times a link takes cross traffic first, ordered by
    # (size, flow), then tactile packets: rank[s] is stream s's place in
    # that order
    sims = [(idx, fl, reach(flow_routes[(fl.src, fl.dst)])) for idx, fl in enumerate(flows)]
    sims = [(idx, fl, hops) for idx, fl, hops in sims if fl.rate_bps > 0.0 and hops]
    paths = [hops for *_, hops in sims] + [routes[FORWARD], routes[BACKWARD]]
    ties = [(0, fl.pkt_bytes) for _, fl, _ in sims] + [(1, 0), (1, 0)]
    rank = np.empty(len(paths), dtype=np.intp)
    rank[sorted(range(len(paths)), key=lambda s: (ties[s], s))] = np.arange(len(paths))
    # a link is fed by the links its streams cross just before it, each
    # passing on the streams that go on to it (go: a mask by stream, None
    # when all of them do); the commands as sent feed the first forward
    # link, the answers as sent the first backward one
    carried: dict = {}
    passed: dict = {}
    for s, hops in enumerate(paths):
        for u, v in zip([None, *hops], hops):
            carried.setdefault(v, set()).add(s)
            if u is not None:
                passed.setdefault((u, v), []).append(s)
    feeds: dict = {hop: [] for hop in links}
    for (u, v), streams in passed.items():
        go = None
        if len(streams) < len(carried[u]):
            go = np.zeros(len(paths), dtype=bool)
            go[streams] = True
        feeds[v].append((u, go))
    tactile = {}
    for direction, s in ((FORWARD, len(paths) - 2), (BACKWARD, len(paths) - 1)):
        if routes[direction]:
            feeds[routes[direction][0]].append((direction, None))
        for j, hop in enumerate(routes[direction]):
            tactile[hop] = (direction, j + 1, s, carried[hop] == {s})
    # link u runs before v when a stream crosses u then v; the answers (None)
    # leave when the commands land. Groups of links that feed each other
    # (on rings) run in topological order, each group settling on its own
    after: dict = {v: set() for v in [*links, None] if v is None or v in carried}
    for hops in paths[:-2] + [routes[FORWARD] + [None] + routes[BACKWARD]]:
        for u, v in zip(hops, hops[1:]):
            after[u].add(v)
    reached = {v: _walk(after, v) for v in after}
    order: list[list] = []
    for v in sorted(after, key=lambda v: sum(v in r for r in reached.values())):
        group = [u for u in after if u in reached[v] and v in reached[u]]
        if group not in order:
            order.append(group)
    plan = (routes, links, [(idx, fl.period_ms, fl.pkt_bytes) for idx, fl, _ in sims],
            [hops[0] for *_, hops in sims], rank, feeds, tactile, order)
    if len(_PLANS) >= 8:
        _PLANS.clear()
    _PLANS[key] = (topology, plan)
    return plan


def _first_uniforms(seeds: list[int]) -> list[float]:
    """Random(seed).random() for each seed, from one generator reseeded per
    seed: random.Random seeds an int through its C base class, _random.Random,
    so reseeding that gives the same state without building a generator per
    seed (built from a seed, as unseeded it would first seed from the OS).
    In a shared_draws() block each seed is seeded once and its value kept."""
    kept = _shared("first uniform")
    if kept is None:
        kept = {}
    missing = [seed for seed in seeds if seed not in kept]
    if missing:
        rng = _random.Random(missing[0])
        for seed in missing:
            rng.seed(seed)
            kept[seed] = rng.random()
    return [kept[seed] for seed in seeds]


def _one_stream(s: int, n: int) -> np.ndarray:
    """The streams of n packets of stream s, as a read-only view that
    takes no memory."""
    return np.broadcast_to(np.intp(s), (n,))


def _insert(t: np.ndarray, sid: np.ndarray, t_in: np.ndarray,
            sid_in: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The time-sorted run (t_in, sid_in) merged into the time-sorted run
    (t, sid), each packet of t_in after the packets of t at its time: the
    one merge of a link's input runs."""
    at = np.searchsorted(t, t_in, side="right")
    at += np.arange(len(t_in))
    theirs = np.ones(len(t) + len(t_in), dtype=bool)
    theirs[at] = False
    out_t, out_sid = np.empty(len(theirs)), np.empty(len(theirs), dtype=np.intp)
    out_t[at], out_sid[at] = t_in, sid_in
    out_t[theirs], out_sid[theirs] = t, sid
    return out_t, out_sid


def _untie(t: np.ndarray, sid: np.ndarray, tied: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """The streams sid of the time-sorted packets t, each run of equal
    times (tied: t[k] == t[k + 1]) reordered by stream rank, stably, so a
    stream's own packets keep their order."""
    at = np.flatnonzero(tied)
    at = np.union1d(at, at + 1)
    sid = sid.copy()
    streams = sid[at]
    sid[at] = streams[np.lexsort((rank[streams], t[at]))]
    return sid


class NetsimChannel(SimChannel):
    """Topology-backed bidirectional channel for the tactile endpoints.

    A simulated run is one value-free round trip, off the clock: every link
    carries all its packets in one batch from an idle transmitter (carry),
    the links running in the order in which packets flow between them, and
    a group of links that feed each other (on a ring) sweeping until no
    input changes. A link holds its packets in the order it serves them,
    each tagged with its stream, so its input is runs that are already in
    order, inserted one into another. Cross-traffic flows emit packets on
    deterministic CBR schedules (one seeded phase offset per flow, stable
    under flow-set changes) up to the drain time; only flows that can delay
    a tactile packet are simulated, and randomness across trials comes
    solely from the phases.
    """

    def __init__(self, topology: Topology, flows: tuple[TrafficFlow, ...],
                 seed: int, queue_cap: int | None = None) -> None:
        check_seed(seed)
        if queue_cap is not None and (type(queue_cap) is not int or queue_cap < 0):
            raise ValueError(f"queue_cap must be None or an int >= 0, got {queue_cap!r}")
        super().__init__()
        (self._routes, self._links, sims, self._first, self._rank, self._feeds, self._tactile,
         self._order) = _plan(topology, flows)
        self._cap = queue_cap
        # each simulated flow's first emission, period and size; the phase,
        # uniform(0, period) of a generator seeded by (seed, flow index), is
        # 0.0 + period * random(), so adding a flow never perturbs the others
        uniforms = _first_uniforms([seed * 1_000_003 + idx for idx, *_ in sims])
        self._emitters = [(0.0 + period * r, period, size_b)
                          for (_, period, size_b), r in zip(sims, uniforms)]

    def round_trip(self, sends: np.ndarray, size_b: int, drain_at: float):
        """SimChannel.round_trip, from _run: picked is the answered columns of backward hop 0."""
        fwd, bwd = self._run(sends, size_b, drain_at)
        trip = fwd[-1], bwd[0] == bwd[0], bwd[-1]
        self._count(*trip)
        return trip

    def _run(self, sends: np.ndarray, size_b: int,
             drain_at: float) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """The arrival times of the commands and of the answers at each hop
        of their routes and past the last, the answer to command k in column
        k, NaN once lost or never answered. Each link serves its packets by
        time, ties by stream rank, a stream's own packets in order. Its
        output run, the departures in that order without the tail-dropped
        packets, never decreases, as a FIFO link does not reorder; so every
        input run of a link is in order: the emission runs (_emit), the
        commands as sent, the answers in fresh order, and each upstream
        link's run kept to the streams that go on to it. A group of links
        settles by sweeps from empty inputs: every hop takes more than 0 ms,
        so packets can only depend on earlier ones, and each sweep fixes at
        least one more hop latency of the run; the fixed point is unique."""
        sizes = np.array([size for *_, size in self._emitters] + [size_b, size_b], dtype=float)
        hops = {FORWARD: [sends] + [_NO_TIMES] * len(self._routes[FORWARD]),
                BACKWARD: [_NO_TIMES] * (len(self._routes[BACKWARD]) + 1)}
        runs = {FORWARD: (sends, _one_stream(len(sizes) - 2, len(sends)))}
        try:  # no bound on the packets emitted up to drain_at would hold for every input
            emitted = self._emit(drain_at)
            for group in self._order:
                while True:
                    moved = False
                    for hop in group:
                        moved |= self._admit(hop, runs, emitted, hops, sizes, len(group) > 1)
                    if not moved or len(group) == 1:
                        break
        except MemoryError:
            raise TcpsbenchError(f"out of memory carrying the cross traffic up to the drain "
                                 f"time {drain_at!r} ms") from None
        return hops[FORWARD], hops[BACKWARD]

    def _emit(self, drain_at: float) -> dict:
        """The emission runs of each link, (times, streams): the cross
        packets the simulated flows first put on it at their CBR times at
        or before drain_at, one run per period. A run is the flows' block of
        running sums (t + period added left to right), rows sorted by phase
        and rank, read column by column. That sequence never decreases,
        since float addition rounds monotonically and each phase is below
        the period, so the drain time cuts a prefix."""
        groups: dict = {}
        for s, (phase, period, _) in enumerate(self._emitters):
            groups.setdefault((self._first[s], period), []).append((phase, self._rank[s], s))
        runs: dict = {}
        for (hop, period), rows in groups.items():
            rows.sort()
            try:
                times = np.full((max(int((drain_at - rows[0][0]) / period) + 3, 1), len(rows)),
                                period)
            except (OverflowError, ValueError):  # inf or NaN steps, or a shape past numpy's index
                raise TcpsbenchError(f"cannot emit cross traffic up to the drain time "
                                     f"{drain_at!r} ms at the period {period!r} ms") from None
            times[0] = [phase for phase, *_ in rows]
            np.add.accumulate(times, axis=0, out=times)
            t = times.ravel()
            count = int(np.searchsorted(t, drain_at, side="right"))
            if count:
                sid = np.empty(times.shape, dtype=np.intp)
                sid[:] = [s for *_, s in rows]
                runs.setdefault(hop, []).append((t[:count], sid.ravel()[:count]))
        return runs

    def _admit(self, hop: tuple[str, str] | None, runs: dict, emitted: dict, hops: dict,
               sizes: np.ndarray, settle: bool) -> bool:
        """Run one link (None: the far end answers the commands that have
        landed, each from its command's column) on its current inputs,
        keep its output run and its tactile stream's times, in the columns
        of the hop before (NaN: lost). When settling a group, True if the
        output run changed."""
        if hop is None:
            # every command crosses one FIFO route, so the landed ones arrive
            # in send order and each is fresh: _fresh_mask is the landed mask
            fwd = hops[FORWARD][-1]
            hops[BACKWARD][0] = fwd.copy()
            t = fwd[fwd == fwd]
            sid, key = _one_stream(len(sizes) - 1, len(t)), BACKWARD
        else:
            key = hop
            t, sid = self._input(hop, runs, emitted)
            link = self._links[hop]
            direction, j, s, alone = self._tactile.get(hop, (None, 0, 0, False))
            ser = serialization_ms(sizes, link.bandwidth_bps)
            t = carry(t, ser[s] if alone else ser[sid], cap=self._cap)[0]
            t += link.delay_ms  # carry's departures are a new array
            if direction is not None:
                mine, before = t if alone else t[sid == s], hops[direction][j - 1]
                if len(mine) < len(before):  # some were lost before this link
                    hops[direction][j] = np.full(len(before), np.nan)
                    hops[direction][j][before == before] = mine
                else:
                    hops[direction][j] = mine
            if self._cap is not None:
                landed = t == t
                t, sid = t[landed], sid[landed]
        was = runs.get(key, (_NO_TIMES, _NO_STREAMS))
        runs[key] = t, sid
        return settle and not (np.array_equal(t, was[0]) and np.array_equal(sid, was[1]))

    def _input(self, hop: tuple[str, str], runs: dict,
               emitted: dict) -> tuple[np.ndarray, np.ndarray]:
        """The packets that reach a link, (times, streams), in the order it
        serves them: its emission runs, then each run that feeds it kept to
        the streams that go on to it, each folded in by an insert; then each
        run of equal times is put in rank order. A stream reaches a link
        from one run only, so the order the runs fold in changes nothing."""
        ins = list(emitted.get(hop, ()))
        for source, go in self._feeds[hop]:
            run = runs.get(source)
            if run is not None and go is not None:
                keep = go[run[1]]
                run = run[0][keep], run[1][keep]
            if run is not None and len(run[0]):
                ins.append(run)
        t, sid = ins[0] if ins else (_NO_TIMES, _NO_STREAMS)
        for run in ins[1:]:
            t, sid = _insert(t, sid, *run)
        tied = t[1:] == t[:-1]
        if tied.any():
            sid = _untie(t, sid, tied, self._rank)
        return t, sid


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


def _check_send(pkt_bytes: int, t_send: float) -> None:
    """Refuse a bad packet size and a send time before 0 (the flows' start) or not finite."""
    check_packet_size(pkt_bytes)
    if not 0.0 <= t_send < math.inf:
        raise ValueError(f"t_send must be finite and >= 0, got {t_send!r}")


def simulate_delivery(topology: Topology, flows: tuple[TrafficFlow, ...] | list[TrafficFlow],
                      pkt_bytes: int, t_send: float, seed: int = 0,
                      src: str | None = None, dst: str | None = None,
                      queue_cap: int | None = None) -> float:
    """One-shot delivery time of a single packet injected at t_send, with
    cross traffic from time zero. The flows emit up to a horizon that
    doubles until the packet lands, or is dropped, at or before it; later
    emissions reach every link after that, so the answer is exact. Every
    link has a finite rate and delay, so the packet lands at a finite time
    for any horizon; if it does not, TcpsbenchError is raised rather than
    doubling forever."""
    _check_send(pkt_bytes, t_send)
    placed = replace(topology,
                     te_master=topology.host_switch(src) if src else topology.te_master,
                     te_slave=topology.host_switch(dst) if dst else topology.te_slave)
    chan = NetsimChannel(placed, tuple(flows), seed, queue_cap)
    horizon = 2.0 * t_send + 1.0
    while True:
        hops = [float(t[0]) for t in chan._run(np.array([t_send]), pkt_bytes, horizon)[0]]
        landed = [t for t in hops if t == t][-1]
        if landed <= horizon:
            break
        if landed == math.inf:
            raise TcpsbenchError(f"the packet sent at t_send={t_send!r} ms never lands: with "
                                 f"the flows emitting up to the horizon {horizon!r} ms, it "
                                 f"reaches a hop at inf")
        horizon *= 2.0
    if hops[-1] != hops[-1]:
        raise Unreachable("packet was never delivered (tail-dropped or unroutable)")
    return hops[-1]


def closed_form_delivery(topology: Topology, pkt_bytes: int, t_send: float,
                         src: str | None = None, dst: str | None = None) -> float:
    """Traffic-free reference: per hop, serialization plus propagation,
    accumulated in route order (same arithmetic order as the simulator)."""
    _check_send(pkt_bytes, t_send)
    src_sw = topology.host_switch(src) if src else topology.te_master
    dst_sw = topology.host_switch(dst) if dst else topology.te_slave
    t = t_send
    for u, v in route(topology, src_sw, dst_sw):
        ln = topology.link_between(u, v)
        t = t + serialization_ms(pkt_bytes, ln.bandwidth_bps) + ln.delay_ms
    return t
