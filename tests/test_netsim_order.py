"""Differential test of the link-order netsim engine against the per-stream engine.

`tcpsbench.netsim.NetsimChannel` keeps each link's packets in the order the
link serves them, each tagged with its stream, and builds a link's input by
inserting into one another runs that are already in time order: the
emission runs, the tactile run and the upstream links' outputs.
`tests/per_stream_oracle.py` holds the engine it replaced, which keeps one
array per stream and hop and sorts every link's input from scratch. On
random topologies, chasing rings, queue caps None/1/2/4, flows of mixed
periods and sizes, and hand-built ties at one instant, both must give the
same arrivals, picks, answers, stats and per-hop tactile times, compared by
repr.
"""

import math
from random import Random

import numpy as np
import pytest

import per_stream_oracle
from random_topologies import random_flows, random_topology
from tcpsbench import netsim
from tcpsbench.netsim import Link, NetsimChannel, Topology, TrafficFlow
from test_netsim_engine import RING_CASES, _ring_case

CASES = 240


@pytest.fixture
def paths(monkeypatch):
    """Counts of the engine's tie fix-ups (_untie), and of the link inputs
    folded from 3 or more runs (2 or more _insert calls in one _input)
    from here on."""
    counts = {"_untie": 0, "_insert": 0, "3+ runs": 0}
    for name in ("_untie", "_insert"):
        def counted(*args, name=name, f=getattr(netsim, name)):
            counts[name] += 1
            return f(*args)

        monkeypatch.setattr(netsim, name, counted)

    def counted_input(self, *args, f=NetsimChannel._input):
        before = counts["_insert"]
        out = f(self, *args)
        counts["3+ runs"] += counts["_insert"] - before >= 2
        return out

    monkeypatch.setattr(NetsimChannel, "_input", counted_input)
    return counts


def _rows(arrays):
    return repr([a.tolist() for a in arrays])


def _compare(topo, flows, seed, cap, sends, size_b, drain_at, emitters=None):
    """Both engines' round trip and per-hop tactile times on one case,
    compared by repr; emitters replaces both channels' flow schedules. The
    oracle's backward hops hold the answers packed in fresh order; the
    engine's hold each in its command's column, NaN in the columns never
    answered. Returns the new engine's round trip."""
    got = NetsimChannel(topo, flows, seed, cap)
    want = per_stream_oracle.NetsimChannel(topo, flows, seed, cap)
    assert got._emitters == want._emitters
    if emitters is not None:
        got._emitters, want._emitters = list(emitters), list(emitters)
    trip = got.round_trip(sends, size_b, drain_at)
    assert _rows(trip) == _rows(want.round_trip(sends, size_b, drain_at))
    assert repr(got.stats) == repr(want.stats)
    hops = got._run(sends, size_b, drain_at)
    fwd, packed = want._run(sends, size_b, drain_at)[-2:]
    bwd = [np.full(len(sends), np.nan) for _ in packed]
    for full, answers in zip(bwd, packed):
        full[want._picked] = answers
    assert [_rows(h) for h in hops] == [_rows(fwd), _rows(bwd)]
    return trip


def _mixed_flows(rng, topo):
    """Up to 10 flows of sizes 1-1500 bytes whose periods come from a few
    values, so that several flows share a period and a first link."""
    flows = []
    for _ in range(rng.randint(1, 10)):
        src, dst = rng.sample(sorted(topo.hosts), 2)
        pkt_bytes = rng.choice((64, 64, 200, 1250, rng.randint(1, 1500)))
        period_ms = rng.choice((0.5, 1.0, 1.0, 2.5, rng.uniform(0.1, 4.0)))
        flows.append(TrafficFlow(src, dst, pkt_bytes * 8.0 / period_ms * 1000.0, pkt_bytes))
    return tuple(flows)


def _sends(rng, start=0.0, n_max=40):
    gaps = [rng.uniform(0.2, 3.0) for _ in range(rng.randint(0, n_max))]
    return np.add.accumulate([start + rng.uniform(0.0, 1.0)] + gaps)


@pytest.mark.parametrize("block", range(4))
def test_random_topologies_match_the_per_stream_engine(block, paths):
    """Random rings, trees and meshes with random or mixed-period flows and
    caps None/1/2/4. The cases are not vacuous: links fold 3 or more runs,
    tactile packets queue and are tail-dropped."""
    queued = dropped = 0
    for i in range(block * CASES // 4, (block + 1) * CASES // 4):
        rng = Random(20_000 + i)
        topo = random_topology(rng)
        flows = random_flows(rng, topo) if i % 2 else _mixed_flows(rng, topo)
        cap = rng.choice((None, 1, 2, 4))
        sends, size_b = _sends(rng), rng.choice((32, 64, 256))
        fwd, _, bwd = _compare(topo, flows, rng.randrange(1000), cap, sends, size_b,
                               float(sends[-1]))
        queued += bool(np.any(fwd - sends > netsim.closed_form_delivery(topo, size_b, 0.0)))
        dropped += bool(np.isnan(fwd).any())
    assert paths["3+ runs"] >= 10 and queued >= 10 and dropped >= 3, (paths, queued, dropped)


@pytest.mark.parametrize("block", range(2))
def test_rings_of_chasing_flows_match_the_per_stream_engine(block):
    """The ring cases of tests/test_netsim_engine.py, whose links feed each
    other in a cycle and settle by sweeps."""
    for i in range(block * RING_CASES // 2, (block + 1) * RING_CASES // 2):
        rng, topo, flows, cap, cfg = _ring_case(i)
        sends = np.add.accumulate(np.full(cfg.sweep_len, cfg.delta_ms))
        for cap in (cap, rng.choice((None, 1, 2, 4))):
            _compare(topo, flows, cfg.seed, cap, sends, cfg.packet_size_b, float(sends[-1]))


def _one_instant_case(rng):
    """Flows from two switches that join at S2 and go on through S3 to S4,
    where the commands join them. S0-S2 and S1-S2 are so fast that near
    1e6 ms a packet leaves at the instant it arrives, and each flow emits
    once, at a phase a few ulps from the others'. Then packets that leave
    S0 and S1 apart meet at S2 at one instant once a long delay is added,
    from one run or from two, and S3 and S4 see the order S2 served them in."""
    delay = rng.choice((0.5, 3e6))
    links = (Link("S0", "S2", delay, 1e18), Link("S1", "S2", delay, 1e18),
             Link("S2", "S3", 0.1, 1e6), Link("S3", "S4", 0.1, 1e6))
    topo = Topology(switches=("S0", "S1", "S2", "S3", "S4"), links=links,
                    hosts={"a": "S0", "b": "S1", "e": "S4"}, te_master="S3", te_slave="S4")
    flows = tuple(TrafficFlow(rng.choice("ab"), "e", 1e3, rng.choice((64, 200, 1250, 1250)))
                  for _ in range(rng.randint(2, 6)))
    x = 1e6 + rng.uniform(0.0, 1.0)
    emitters = [(x + rng.randrange(4) * math.ulp(x), 4e6, fl.pkt_bytes) for fl in flows]
    sends = _sends(rng, start=x + delay - 1.0, n_max=20)
    return topo, flows, emitters, sends


def _equal_phase_case(rng):
    """Flows of several sizes on a two-link line that share a phase, some
    of them a period too, and commands sent at their emission instants."""
    links = (Link("S0", "S1", 0.2, 1e6), Link("S1", "S2", rng.choice((0.0, 0.3)), 2e6))
    topo = Topology(switches=("S0", "S1", "S2"), links=links,
                    hosts={"a": "S0", "b": "S1", "c": "S2"}, te_master="S0", te_slave="S2")
    flows = tuple(TrafficFlow(rng.choice("ab"), "c", 1e5, rng.choice((64, 200, 1250)))
                  for _ in range(rng.randint(2, 6)))
    phase = rng.uniform(0.0, 2.0)
    emitters = [(phase, rng.choice((20.0, 20.0, 35.0)), fl.pkt_bytes) for fl in flows]
    instants = np.add.accumulate([phase] + [20.0] * 3)
    sends = np.sort(np.concatenate([instants, _sends(rng, n_max=10)]))
    return topo, flows, emitters, sends


def test_ties_at_one_instant_match_the_per_stream_engine(paths, monkeypatch):
    """Equal phases, and arrivals that collide after + delay_ms, within one
    run and across runs: each run of equal times is served by rank. The
    cases are not vacuous: the tie fix-up and an input of 3 or more runs
    each come at least 10 times, and at least 10 fix-ups change the order the
    packets came in."""
    reordered = [0]
    untie = netsim._untie  # the counted fix-up

    def checked(t, sid, tied, rank):
        out = untie(t, sid, tied, rank)
        reordered[0] += not np.array_equal(out, sid)
        return out

    monkeypatch.setattr(netsim, "_untie", checked)
    rng = Random(7)
    for i in range(120):
        make = _one_instant_case if i % 2 else _equal_phase_case
        topo, flows, emitters, sends = make(rng)
        cap = rng.choice((None, None, 1, 2, 4))
        _compare(topo, flows, i, cap, sends, rng.choice((32, 64)), float(sends[-1]), emitters)
    assert paths["_untie"] >= 10 and paths["3+ runs"] >= 10, paths
    assert reordered[0] >= 10, reordered
