"""Differential test of the netsim engine against the event-per-packet oracle.

`tcpsbench.netsim.NetsimChannel` runs a whole round trip off the virtual
clock, one batch per link, and simulates only the flows that can delay a
tactile packet. `tests/netsim_oracle.py` holds the channel it replaced, in
which every packet hop is a clock event. On random topologies (rings
included, zero delays included), flow sets and queue caps, and on rings
whose flows chase each other so that links feed each other in a cycle,
both must give the same step runs and the same one-shot delivery times,
bit for bit.
"""

from random import Random

import numpy as np
import pytest

import netsim_oracle
from tcpsbench.loopsim import LoopConfig, run_step_experiment
from tcpsbench.netsim import (
    Link,
    NetsimChannel,
    Topology,
    TrafficFlow,
    Unreachable,
    simulate_delivery,
)

CASES = 200
RING_CASES = 40


def _topology(rng):
    n = rng.randint(4, 10)
    switches = tuple(f"S{i}" for i in range(n))
    kind = rng.choice(("ring", "tree", "mesh"))
    if kind == "ring":
        pairs = [(i, (i + 1) % n) for i in range(n)]
    else:
        pairs = [(rng.randrange(i), i) for i in range(1, n)]
        if kind == "mesh":
            pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, n))]

    def delay():
        return rng.choice((0.0, 0.0, 0.1, 0.5, 1.0, rng.uniform(0.0, 2.0)))

    def bandwidth():
        return rng.choice((1e6, 2e6, 1e7, rng.uniform(5e5, 2e7)))

    links = tuple(Link(switches[a], switches[b], delay(), bandwidth()) for a, b in pairs)
    hosts = {f"h{i}{j}": s for i, s in enumerate(switches) for j in range(2)}
    te_master, te_slave = rng.sample(switches, 2)
    return Topology(switches=switches, links=links, hosts=hosts,
                    te_master=te_master, te_slave=te_slave)


def _flows(rng, topo):
    flows = []
    for _ in range(rng.randint(0, 12)):
        src, dst = rng.sample(sorted(topo.hosts), 2)
        pkt_bytes = rng.choice((1, 64, 200, 1250, rng.randint(1, 1500)))
        # a gap between a flow's packets of 0.1-4 ms keeps the
        # oracle's event count small while loading links up to saturation
        period_ms = rng.uniform(0.1, 4.0)
        rate = 0.0 if rng.random() < 0.05 else pkt_bytes * 8.0 / period_ms * 1000.0
        flows.append(TrafficFlow(src, dst, rate, pkt_bytes))
    return tuple(flows)


def _case(i):
    rng = Random(1000 + i)
    topo = _topology(rng)
    flows = _flows(rng, topo)
    cap = rng.choice((None, None, rng.randint(1, 6)))
    cfg = LoopConfig(setting=rng.choice(("haptic", "non-haptic")),
                     delta_ms=rng.uniform(0.5, 4.0), sweep_len=rng.randint(8, 40),
                     packet_size_b=rng.choice((32, 64, 256)),
                     robot_tau_ms=rng.choice((0.0, rng.uniform(0.1, 3.0))),
                     seed=rng.randrange(1000))
    return rng, topo, flows, cap, cfg


def _record(rec):
    c = rec.curve
    return (list(zip(c.t.tolist(), c.x.tolist(), c.y.tolist(), c.signal.tolist())),
            rec.operator_trace,
            {d: (s.sent, s.delivered, s.dropped, s.stale) for d, s in rec.channel_stats.items()})


def _delivery(simulate, topo, flows, pkt_bytes, t_send, seed, src, dst, cap):
    try:
        return simulate(topo, flows, pkt_bytes, t_send, seed, src, dst, cap)
    except Unreachable:
        return None


@pytest.mark.parametrize("block", range(10))
def test_engine_matches_event_per_packet_oracle(block):
    for i in range(block * CASES // 10, (block + 1) * CASES // 10):
        rng, topo, flows, cap, cfg = _case(i)
        seed = cfg.seed
        got = run_step_experiment(cfg, NetsimChannel(topo, flows, seed, cap))
        want = run_step_experiment(cfg, netsim_oracle.NetsimChannel(topo, flows, seed, cap))
        assert _record(got) == _record(want), f"case {i}"
        for _ in range(2):
            src, dst = rng.sample(sorted(topo.hosts), 2)
            args = (topo, flows, rng.choice((1, 64, 1500)), rng.uniform(0.0, 40.0), seed,
                    src, dst, cap)
            assert (_delivery(simulate_delivery, *args)
                    == _delivery(netsim_oracle.simulate_delivery, *args)), f"case {i}"


def _ring_case(i):
    """A ring of 5-8 switches on which a flow leaves every switch the same
    way round and crosses 2 or more links, so that every link feeds the
    next one."""
    rng = Random(5000 + i)
    n = rng.randint(5, 8)
    switches = tuple(f"S{k}" for k in range(n))
    links = tuple(Link(switches[k], switches[(k + 1) % n],
                       rng.choice((0.0, 0.1, rng.uniform(0.0, 1.0))),
                       rng.choice((1e6, 2e6, rng.uniform(5e5, 5e6)))) for k in range(n))
    hosts = {f"h{k}": s for k, s in enumerate(switches)}
    span = rng.randint(2, (n - 1) // 2)  # fewer than half the links: one way round
    flows = []
    for k in range(n):
        pkt_bytes = rng.choice((64, 200, 1250))
        period_ms = rng.uniform(0.3, 4.0)
        flows.append(TrafficFlow(f"h{k}", f"h{(k + span) % n}",
                                 pkt_bytes * 8.0 / period_ms * 1000.0, pkt_bytes))
    te_master, te_slave = rng.sample(switches, 2)
    topo = Topology(switches=switches, links=links, hosts=hosts,
                    te_master=te_master, te_slave=te_slave)
    cap = rng.choice((None, None, rng.randint(1, 6)))
    cfg = LoopConfig(setting=rng.choice(("haptic", "non-haptic")),
                     delta_ms=rng.uniform(0.5, 3.0), sweep_len=rng.randint(8, 30),
                     packet_size_b=rng.choice((32, 64, 256)),
                     robot_tau_ms=rng.choice((0.0, rng.uniform(0.1, 3.0))),
                     seed=rng.randrange(1000))
    return rng, topo, tuple(flows), cap, cfg


@pytest.mark.parametrize("block", range(4))
def test_rings_of_chasing_flows_match_the_oracle(block):
    for i in range(block * RING_CASES // 4, (block + 1) * RING_CASES // 4):
        rng, topo, flows, cap, cfg = _ring_case(i)
        got = run_step_experiment(cfg, NetsimChannel(topo, flows, cfg.seed, cap))
        want = run_step_experiment(cfg, netsim_oracle.NetsimChannel(topo, flows, cfg.seed, cap))
        assert _record(got) == _record(want), f"ring case {i}"
        src, dst = rng.sample(sorted(topo.hosts), 2)
        args = (topo, flows, rng.choice((1, 64, 1500)), rng.uniform(0.0, 40.0), cfg.seed,
                src, dst, cap)
        assert (_delivery(simulate_delivery, *args)
                == _delivery(netsim_oracle.simulate_delivery, *args)), f"ring case {i}"


def test_ring_cases_form_cyclic_link_groups(monkeypatch):
    """The ring cases are not vacuous: in at least 10 of them a group of
    links feeds itself, and its second sweep still changes an input, so the
    group settles only in a third."""
    runs = [0]
    admit = NetsimChannel._admit

    def counted(self, *args):
        runs[0] += 1
        return admit(self, *args)

    monkeypatch.setattr(NetsimChannel, "_admit", counted)
    resettled = 0
    for i in range(RING_CASES):
        _rng, topo, flows, cap, cfg = _ring_case(i)
        chan = NetsimChannel(topo, flows, cfg.seed, cap)
        runs[0] = 0
        run_step_experiment(cfg, chan)
        once = sum(len(group) for group in chan._order)  # one sweep of every group
        cyclic = max(len(group) for group in chan._order)
        resettled += cyclic > 1 and runs[0] >= once + 2 * cyclic
    assert resettled >= 10, resettled


def test_cases_exercise_queueing_drops_and_drain():
    """The random cases are not vacuous: tactile packets are tail-dropped,
    tactile routes carry cross traffic, and rings occur."""
    dropped = loaded = rings = 0
    for i in range(CASES):
        _rng, topo, flows, cap, cfg = _case(i)
        chan = NetsimChannel(topo, flows, cfg.seed, cap)
        rec = run_step_experiment(cfg, chan)
        dropped += sum(s.dropped for s in rec.channel_stats.values())
        loaded += bool(chan._emitters)
        rings += len(topo.links) == len(topo.switches)
    assert dropped > 0 and loaded > CASES // 2 and rings > CASES // 5


def test_unreached_links_are_pruned():
    """A flow that shares no link with a tactile route, and cannot delay
    one that does, is not simulated at all."""
    links = tuple(Link(f"S{i}", f"S{i + 1}") for i in range(3))
    topo = Topology(switches=("S0", "S1", "S2", "S3"), links=links,
                    hosts={"a": "S2", "b": "S3", "c": "S0"}, te_master="S0", te_slave="S1")
    away = TrafficFlow("a", "b", 1e6, 100)          # S2 -> S3 only
    feeder = TrafficFlow("b", "c", 1e6, 100)        # S3 -> S2 -> S1 -> S0
    assert NetsimChannel(topo, (away,), 0)._emitters == []
    chan = NetsimChannel(topo, (away, feeder), 0)
    assert len(chan._emitters) == 1
    assert set(chan._links) == {("S0", "S1"), ("S1", "S0"), ("S2", "S1"), ("S3", "S2")}


def test_cross_emission_at_the_same_instant_enters_first():
    """A cross packet emitted at the instant a tactile packet enters the same
    link queues ahead of it, as the oracle's delivery-before-control event
    order has it."""
    topo = Topology(switches=("S0", "S1"), links=(Link("S0", "S1", 0.0, 1e6),),
                    hosts={"a": "S0", "b": "S1"}, te_master="S0", te_slave="S1")
    flows = (TrafficFlow("a", "b", 1e5, 1250),)  # every 100 ms, 10 ms on the wire
    phase = Random(0).uniform(0.0, flows[0].period_ms)  # the phase of flow 0 at seed 0
    t = simulate_delivery(topo, flows, 32, phase, 0)
    assert t == netsim_oracle.simulate_delivery(topo, flows, 32, phase, 0)
    assert t == phase + 10.0 + 0.256
    # the operator's check at delta_ms = phase sends as the flow emits
    cfg = LoopConfig(delta_ms=phase, sweep_len=8)
    got = run_step_experiment(cfg, NetsimChannel(topo, flows, 0))
    assert got.operator_trace[1][0] == phase
    assert _record(got) == _record(run_step_experiment(cfg, netsim_oracle.NetsimChannel(
        topo, flows, 0)))


def test_cross_packets_at_the_same_instant_enter_smallest_first():
    """Cross packets that reach a link at one instant enter it by size, then
    in flow order. Here a 1250-byte and a 64-byte packet leave S0 at 1 ms;
    the small one goes first, so the large one reaches S1-S2 only at
    11.512 ms and a tactile packet sent at 11.2 ms finds the link idle."""
    topo = Topology(switches=("S0", "S1", "S2"),
                    links=(Link("S0", "S1", 0.0, 1e6), Link("S1", "S2", 0.0, 1e6)),
                    hosts={"a": "S0", "b": "S2"}, te_master="S1", te_slave="S2")
    chan = NetsimChannel(topo, (TrafficFlow("a", "b", 1e5, 1250),
                                TrafficFlow("a", "b", 1e5, 64)), 0)
    chan._emitters = [(1.0, 100.0, 1250), (1.0, 100.0, 64)]  # one emission each, together
    fwd, _, _ = chan.round_trip(np.array([11.2]), 32, 11.2)
    assert fwd.tolist() == [11.2 + 0.256]


def test_tail_dropped_packet_is_unreachable():
    """With no cross-traffic events left on the clock, a one-shot packet that
    is tail-dropped ends the run instead of waiting forever."""
    topo = Topology(switches=("S0", "S1"), links=(Link("S0", "S1", 0.0, 1e6),),
                    hosts={"a": "S0", "b": "S1"}, te_master="S0", te_slave="S1")
    flows = (TrafficFlow("a", "b", 5e6, 1250),)  # five times the link rate
    with pytest.raises(Unreachable):
        simulate_delivery(topo, flows, 32, 50.0, 0, queue_cap=1)


def _per_flow_emissions(emitters, drain_at):
    """Each flow's CBR emission times at or before drain_at, summed one
    flow at a time, as the engine did before it summed the flows of one
    period as the rows of one block."""
    out = []
    for phase, period, _ in emitters:
        times = np.full(max(int((drain_at - phase) / period) + 3, 1), period)
        times[0] = phase
        np.add.accumulate(times, out=times)
        out.append(times[:np.searchsorted(times, drain_at, side="right")])
    return out


def _mixed_period_case():
    """Two switches and nine flows: three periods shared by two or three
    flows each, and two flows with periods of their own."""
    topo = Topology(switches=("S0", "S1"), links=(Link("S0", "S1", 0.2, 1e6),),
                    hosts={"a": "S0", "b": "S1"}, te_master="S0", te_slave="S1")
    flows = tuple(TrafficFlow(src, dst, rate, size)
                  for src, dst, rate, size in (("a", "b", 1e5, 64), ("b", "a", 1e5, 64),
                                               ("a", "b", 1e5, 64), ("a", "b", 2e5, 1250),
                                               ("b", "a", 2e5, 1250), ("a", "b", 3e4, 200),
                                               ("b", "a", 3e4, 200), ("a", "b", 7e4, 64),
                                               ("b", "a", 4.5e5, 500)))
    return topo, flows


def test_flows_of_one_period_emit_as_they_did_one_flow_at_a_time():
    """Every flow's emission times equal the per-flow sum, bit for bit:
    flows of several periods, some shared and some not, with drain times
    before, among and after their phases and at an emission; and a channel
    with no flows. A flow's times are its packets in the emission runs of
    its first link, and every run is in time order."""
    topo, flows = _mixed_period_case()
    sends = np.array([0.5, 3.0])
    empty = nonempty = 0
    for seed in range(20):
        chan = NetsimChannel(topo, flows, seed)
        periods = [period for _, period, _ in chan._emitters]
        assert len(set(periods)) == 5 and len(periods) == len(flows)
        last = float(_per_flow_emissions(chan._emitters, 50.0)[seed % len(flows)][-1])
        for drain_at in (0.0, 1.0, 7.3, 40.0, 250.0, last):  # last: a flow emits at drain_at
            runs = [run for hop_runs in chan._emit(drain_at).values() for run in hop_runs]
            assert all(np.all(t[1:] >= t[:-1]) for t, _ in runs), (seed, drain_at)
            for s, want in enumerate(_per_flow_emissions(chan._emitters, drain_at)):
                got = [x for t, sid in runs for x in t[sid == s].tolist()]
                assert repr(got) == repr(want.tolist()), (seed, drain_at, s)
                empty += not len(want)
                nonempty += len(want) > 1
    assert empty >= 20 and nonempty >= 100, (empty, nonempty)  # phases past drain_at, and not
    chan = NetsimChannel(topo, (), 0)
    assert chan._emitters == []
    assert chan._emit(10.0) == {}
    commands, answers = chan._run(sends, 32, 10.0)
    assert len(commands) == len(answers) == 2 and commands[0] is sends


def test_mixed_period_loaded_round_trips_match_the_oracle():
    """Round trips and step runs across flows of several shared and
    unshared periods, loading the link near its rate, with and without a
    queue cap, give the event-per-packet oracle's results bit for bit."""
    topo, flows = _mixed_period_case()
    rng = Random(19)
    waited = 0
    for case in range(12):
        seed, cap = rng.randrange(1000), rng.choice((None, None, 2))
        sends = np.add.accumulate([0.0] + [rng.uniform(0.5, 3.0) for _ in range(29)])
        drain_at = float(sends[-1])
        got = NetsimChannel(topo, flows, seed, cap).round_trip(sends, 64, drain_at)
        want = netsim_oracle.NetsimChannel(topo, flows, seed, cap).round_trip(sends, 64, drain_at)
        assert repr([x.tolist() for x in got]) == repr([x.tolist() for x in want]), case
        waited += bool(np.any(got[0] - sends > 0.2 + 64 * 8.0 / 1e6 * 1000.0 + 1e-9))
        cfg = LoopConfig(delta_ms=rng.uniform(0.5, 3.0), sweep_len=20, seed=seed)
        assert (_record(run_step_experiment(cfg, NetsimChannel(topo, flows, seed, cap)))
                == _record(run_step_experiment(
                    cfg, netsim_oracle.NetsimChannel(topo, flows, seed, cap)))), case
    assert waited >= 6, waited
