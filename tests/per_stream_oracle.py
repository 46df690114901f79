"""Per-stream topology engine: the reference for the link-order engine.

`NetsimChannel` below is the round trip tcpsbench ran before each link kept
its packets in the order it serves them. Every stream (each simulated flow,
the commands and the answers) holds one array of arrival times per hop, NaN
once lost. A link concatenates the chunks of the streams it carries, sorts
them by time (ties by (size, flow) for cross traffic, then tactile) with a
stable argsort, carries them through `transport.carry` and scatters the
departures back into per-stream arrays. It is the oracle that
tests/test_netsim_order.py compares `tcpsbench.netsim.NetsimChannel`
against, bit for bit.
"""

from __future__ import annotations

from random import Random

import numpy as np

from tcpsbench.netsim import Topology, TrafficFlow, route
from tcpsbench.transport import BACKWARD, FORWARD, SimChannel, _fresh_mask, carry, serialization_ms


def _plan(topology: Topology, flows: tuple[TrafficFlow, ...]) -> tuple:
    """The tactile routes, the kept links, the simulated flows, each
    link's (stream, hop) inputs in tie order and the order the links run in."""
    routes = {
        FORWARD: route(topology, topology.te_master, topology.te_slave),
        BACKWARD: route(topology, topology.te_slave, topology.te_master),
    }
    flow_routes = {(fl.src, fl.dst): route(topology, fl.src, fl.dst) for fl in flows}
    kept = set(routes[FORWARD]) | set(routes[BACKWARD])

    def reach(hops: list[tuple[str, str]]) -> list[tuple[str, str]]:
        return hops[:max((i + 1 for i, hop in enumerate(hops) if hop in kept), default=0)]

    while not all(kept.issuperset(reach(hops)) for hops in flow_routes.values()):
        for hops in flow_routes.values():
            kept.update(reach(hops))
    links: dict[tuple[str, str], tuple[float, float]] = {}
    for ln in topology.links:
        for hop in ((ln.a, ln.b), (ln.b, ln.a)):
            if hop in kept and hop not in links:
                links[hop] = (ln.bandwidth_bps, ln.delay_ms)
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
    return links, [(idx, fl.period_ms, fl.pkt_bytes) for idx, fl, _ in sims], paths, inputs, order


class NetsimChannel(SimChannel):
    """The per-stream round trip of a topology channel; `_emitters` holds
    each simulated flow's (phase, period, size), as on the engine's channel."""

    def __init__(self, topology: Topology, flows: tuple[TrafficFlow, ...],
                 seed: int, queue_cap: int | None = None) -> None:
        super().__init__()
        self._links, sims, self._paths, self._inputs, self._order = _plan(topology, tuple(flows))
        self._cap = queue_cap
        self._emitters = [(Random(seed * 1_000_003 + idx).uniform(0.0, period), period, size_b)
                          for idx, period, size_b in sims]
        self._picked = np.empty(0, dtype=bool)

    def round_trip(self, sends: np.ndarray, size_b: int, drain_at: float):
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
        the last, NaN once lost. The flows of one period emit as the rows of
        one running-sum block; a group of links settles by sweeps from empty
        inputs."""
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

    def _admit(self, hop, arrivals: list, sizes: list[int], settle: bool) -> bool:
        """Run one link (None: the far end answers the fresh commands) on its
        current inputs. When settling a group, True if an output changed."""
        if hop is None:
            fwd = arrivals[-2][-1]
            self._picked = _fresh_mask(fwd)
            outs = [(arrivals[-1], 0, fwd[self._picked])]
        else:
            bw, delay = self._links[hop]
            chunks = self._inputs[hop]
            ins = [arrivals[s][j] for s, j in chunks]
            ser = [serialization_ms(sizes[s], bw) for s, _ in chunks]
            a = np.concatenate(ins) if len(ins) > 1 else ins[0]
            landed = np.count_nonzero(a == a)  # NaN: lost upstream
            if len(ins) == 1 and landed == len(a):
                done = carry(a, ser[0], cap=self._cap)[0] + delay
            else:
                # by time, ties in chunk order; the lost packets sort last
                order = np.argsort(a, kind="stable")[:landed]
                done = np.full(len(a), np.nan)
                done[order] = carry(a[order], np.repeat(ser, [len(t) for t in ins])[order],
                                    cap=self._cap)[0] + delay
            outs, at = [], 0
            for (s, j), t in zip(chunks, ins):
                outs.append((arrivals[s], j + 1, done[at:at + len(t)]))
                at += len(t)
        moved = settle and any(not np.array_equal(out, path[j], equal_nan=True)
                               for path, j, out in outs)
        for path, j, out in outs:
            path[j] = out
        return moved

