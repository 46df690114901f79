"""Event-per-packet topology channel: the reference for the netsim engine.

`NetsimChannel` below is the channel tcpsbench used before cross traffic
left the virtual clock. Every cross-traffic packet is a clock event at each
hop, so queueing on every link follows the scheduler's global time order
directly. Its round trip is the value-free replay on the clock that step
runs and cybersickness replays used under cross traffic. It is slow (a
loaded trial schedules tens of thousands of events) but simple, which makes
it the oracle that tests/test_netsim_engine.py compares
`tcpsbench.netsim.NetsimChannel` against, bit for bit.
"""

from __future__ import annotations

from random import Random
from typing import Callable

import numpy as np

from queue_oracle import PacketQueue
from tcpsbench.clock import PRIO_CONTROL, EventScheduler, PRIO_DELIVERY
from tcpsbench.netsim import Topology, TrafficFlow, Unreachable, route
from tcpsbench.transport import BACKWARD, FORWARD, DirectionStats, SimChannel


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
        self._queues: dict[tuple[str, str], PacketQueue] = {}
        for ln in topology.links:
            for hop in ((ln.a, ln.b), (ln.b, ln.a)):
                if hop not in self._queues:
                    self._queues[hop] = PacketQueue(ln.bandwidth_bps, ln.delay_ms, queue_cap)
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

    def round_trip(self, sends, size_b, drain_at):
        """The round trip as a value-free replay on the clock: command 0 at
        once, the others as control events, then at drain_at the flows stop
        and the in-flight packets land. The far end answers a command when
        it lands if it is newer than every command that landed before it.
        Returns the commands' arrival times, the mask of the answered ones
        and the answers' arrival times by command (NaN: none, or lost)."""
        sched = EventScheduler()
        self.bind(sched)
        times = sends.tolist()
        n = len(times)
        fwd, bwd = np.full(n, np.nan), np.full(n, np.nan)
        picked = np.zeros(n, dtype=bool)
        newest = -1
        sent = 0

        def on_feedback(k: int) -> None:
            bwd[k] = sched.now

        def on_command(k: int) -> None:
            nonlocal newest
            fwd[k] = sched.now
            if k > newest:
                newest = k
                picked[k] = True
                self.send(BACKWARD, k, size_b, on_feedback)

        def send_next() -> None:
            nonlocal sent
            self.send(FORWARD, sent, size_b, on_command)
            sent += 1
            if sent < n:
                sched.schedule(times[sent], send_next, PRIO_CONTROL)
            else:
                sched.schedule(drain_at, self.begin_drain, PRIO_CONTROL)

        send_next()
        sched.run()
        return fwd, picked, bwd


def simulate_delivery(topology: Topology, flows: tuple[TrafficFlow, ...],
                      pkt_bytes: int, t_send: float, seed: int = 0,
                      src: str | None = None, dst: str | None = None,
                      queue_cap: int | None = None) -> float:
    """One packet injected at t_send through the reference channel, with
    cross traffic replayed from time zero. Raises Unreachable on a tail drop;
    the cross-traffic sources never stop, so the run ends at the drop."""
    chan = NetsimChannel(topology, tuple(flows), seed, queue_cap)
    sched = EventScheduler()
    chan.bind(sched)
    src_sw = topology.host_switch(src) if src else topology.te_master
    dst_sw = topology.host_switch(dst) if dst else topology.te_slave
    hops = route(topology, src_sw, dst_sw)
    result: list[float] = []
    stats = DirectionStats()

    def inject() -> None:
        chan._forward_packet(hops, 0, pkt_bytes, lambda: result.append(sched.now), stats)

    sched.schedule(t_send, inject, PRIO_DELIVERY)
    sched.run(stop=lambda: bool(result) or stats.dropped > 0)
    if not result:
        raise Unreachable("packet was never delivered (tail-dropped or unroutable)")
    return result[0]
