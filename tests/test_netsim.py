"""Topology routing and store-and-forward queueing."""

import math
import re
from random import Random

import numpy as np
import pytest

import netsim_oracle
from random_topologies import random_flows, random_topology
from tcpsbench import netsim
from tcpsbench.core import TcpsbenchError
from tcpsbench.experiments import load_experiment
from tcpsbench.netsim import (
    Link,
    Topology,
    TopologyError,
    TrafficFlow,
    Unreachable,
    channel_from_topology,
    closed_form_delivery,
    pair_flows,
    route,
    simulate_delivery,
)
from tcpsbench.transport import BACKWARD, FORWARD, _fresh_mask, shared_draws


def line_topology(n=3, delay=0.1, bw=1e7):
    switches = tuple(f"S{i}" for i in range(n))
    links = tuple(Link(f"S{i}", f"S{i+1}", delay, bw) for i in range(n - 1))
    hosts = {f"h{i}": f"S{i}" for i in range(n)}
    return Topology(switches=switches, links=links, hosts=hosts,
                    te_master="S0", te_slave=switches[-1])


def diamond_topology():
    links = (Link("S0", "S1", 0.1, 1e7), Link("S1", "S3", 0.1, 1e7),
             Link("S0", "S2", 0.1, 1e7), Link("S2", "S3", 0.1, 1e7))
    return Topology(switches=("S0", "S1", "S2", "S3"), links=links,
                    hosts={"h0": "S0", "h3": "S3"}, te_master="S0", te_slave="S3")


@pytest.mark.parametrize("build", [
    lambda seed: channel_from_topology(line_topology(3), (), seed),
    lambda seed: simulate_delivery(line_topology(3), (), 32, 0.0, seed=seed),
    lambda seed: load_experiment("usnet-nw").channel.factory(seed),
], ids=["channel_from_topology", "simulate_delivery", "preset-factory"])
def test_negative_seeds_are_refused(build):
    """Random() seeds with abs(): seed -1's flow phases would be another seed's."""
    build(0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        build(-1)


@pytest.mark.parametrize("deliver", [
    lambda topo, size_b, t: simulate_delivery(topo, (), size_b, t),
    lambda topo, size_b, t: closed_form_delivery(topo, size_b, t),
], ids=["simulate_delivery", "closed_form_delivery"])
@pytest.mark.parametrize("size_b, t_send, message", [
    (32, -0.5, "t_send must be finite and >= 0, got -0.5"),
    (32, -0.4, "t_send must be finite and >= 0, got -0.4"),
    (32, math.nan, "t_send must be finite and >= 0, got nan"),
    (32, math.inf, "t_send must be finite and >= 0, got inf"),
    (0, 0.0, "packet_size_b must be an int >= 1, got 0"),
    (1.5, 0.0, "packet_size_b must be an int >= 1, got 1.5"),
    (True, 0.0, "packet_size_b must be an int >= 1, got True"),
], ids=["t-minus-half", "t-minus-0.4", "t-nan", "t-inf", "size-0", "size-float", "size-bool"])
def test_delivery_helpers_refuse_a_bad_send(deliver, size_b, t_send, message):
    """The flows and queues start at time 0: a send before it would loop
    forever (t_send -0.5 gives a horizon of 0, which never doubles), or be
    clamped to 0 by the simulator but not by the closed form."""
    topo = line_topology(3)
    assert deliver(topo, 32, 0.0) == closed_form_delivery(topo, 32, 0.0)
    with pytest.raises(ValueError, match=re.escape(message)):
        deliver(topo, size_b, t_send)


@pytest.mark.parametrize("cap", [-1, 1.5, True, "3"], ids=["negative", "float", "bool", "str"])
def test_a_queue_cap_that_is_not_an_int_of_at_least_0_is_refused(cap):
    """Named when the channel is built, not as an IndexError or TypeError
    inside its first round trip. Cap 0 stays legal and tail-drops every
    packet."""
    topo, flows = line_topology(3), (TrafficFlow("h0", "h2", 1e6, 64),)
    sends = np.arange(5.0)
    fwd, picked, _ = channel_from_topology(topo, flows, 3, 0).round_trip(sends, 32, 10.0)
    assert np.isnan(fwd).all() and not picked.any()
    with pytest.raises(Unreachable):
        simulate_delivery(topo, flows, 32, 0.0, queue_cap=0)
    builds = (lambda: channel_from_topology(topo, flows, 3, cap).round_trip(sends, 32, 10.0),
              lambda: simulate_delivery(topo, flows, 32, 0.0, queue_cap=cap))
    for build in builds:
        with pytest.raises(ValueError, match=re.escape(f"queue_cap must be None or an int >= 0, "
                                                       f"got {cap!r}")):
            build()


def test_a_packet_that_never_lands_raises(monkeypatch):
    """A fault under which no packet lands (every departure inf) raises at
    once, naming t_send and the horizon; it used to double the horizon
    forever, the flows emitting ever more packets."""
    calls = [0]

    def never(a, ser, free_at=0.0, cap=None):
        calls[0] += 1
        return np.full(len(a), np.inf), math.inf

    monkeypatch.setattr(netsim, "carry", never)
    topo, flows = line_topology(3), (TrafficFlow("h0", "h2", 1e5, 64),)
    with pytest.raises(TcpsbenchError, match=re.escape(
            "t_send=2.0 ms never lands: with the flows emitting up to the horizon 5.0 ms")):
        simulate_delivery(topo, flows, 32, 2.0)
    assert calls[0] == 4  # the four links of one run


@pytest.mark.parametrize("delay, bw, size_b", [
    (2000.0, 1e7, 32),  # a long propagation delay
    (0.1, 300.0, 1250),  # a slow link: 33 s on the wire
])
def test_a_late_but_finite_landing_is_answered(delay, bw, size_b):
    """However many doublings of the horizon a packet needs (here 11 and
    16), a finite landing is answered: with no flows, the closed form."""
    topo = line_topology(2, delay, bw)
    assert (simulate_delivery(topo, (), size_b, 0.0)
            == closed_form_delivery(topo, size_b, 0.0) > 1024.0)


def test_a_link_loaded_thousands_of_times_its_rate_is_answered():
    """A packet behind cross traffic at 4000 times the link's rate lands
    seconds after the first horizon, 3 ms; the event-per-packet oracle
    agrees bit for bit."""
    topo, flows = line_topology(2, 0.1, 1e3), (TrafficFlow("h0", "h1", 4e6, 64),)
    got = simulate_delivery(topo, flows, 32, 1.0)
    assert got == netsim_oracle.simulate_delivery(topo, flows, 32, 1.0) > 3.0 * 1024.0


def test_the_first_of_parallel_links_carries():
    """Where two links join the same switches, the first listed carries the
    packets, in both directions: with no flows the simulator equals the
    closed form bit for bit, and both take the first link's rate and
    delay."""
    links = (Link("S0", "S1", 0.3, 2e6), Link("S1", "S0", 0.05, 5e7),
             Link("S1", "S2", 1.7, 3e5), Link("S2", "S1", 0.2, 1e8))
    topo = Topology(switches=("S0", "S1", "S2"), links=links, hosts={"a": "S0", "b": "S2"},
                    te_master="S0", te_slave="S2")
    for src, dst in (("a", "b"), ("b", "a")):
        for size_b in (32, 1250):
            for t in (0.0, 3.7):
                sim = simulate_delivery(topo, (), size_b, t, src=src, dst=dst)
                assert sim == closed_form_delivery(topo, size_b, t, src=src, dst=dst)
                assert sim == pytest.approx(t + size_b * 8.0 / 2e6 * 1000.0 + 0.3
                                            + size_b * 8.0 / 3e5 * 1000.0 + 1.7)


def test_a_host_id_that_is_a_switch_id_is_refused():
    """host_switch looks in hosts first, so a host named S2 hid switch S2:
    route(t, "S1", "S2") went to S0, where the host hangs."""
    with pytest.raises(TopologyError, match="host id 'S2' is also a switch id"):
        Topology(switches=("S0", "S1", "S2"), links=line_topology(3).links,
                 hosts={"S2": "S0", "h": "S2"}, te_master="S0", te_slave="S2")


@pytest.mark.parametrize("drain_at", [1e30, math.inf, -math.inf, math.nan])
def test_a_drain_time_out_of_range_raises(drain_at):
    """Cross traffic up to a drain time whose emission block numpy cannot
    index, or that is not finite, raises TcpsbenchError naming the drain
    time and the period; it used to end in a ValueError or OverflowError."""
    chan = channel_from_topology(line_topology(3), (TrafficFlow("h0", "h2", 1e6, 1250),), 0)
    with pytest.raises(TcpsbenchError, match=re.escape(
            f"drain time {drain_at!r} ms at the period 10.0 ms")):
        chan.round_trip(np.array([0.0, 1.0]), 32, drain_at)


def test_channels_at_any_queue_cap_share_one_plan():
    """A plan does not depend on the queue cap, so channels on one topology
    and flow set share it whatever their caps."""
    topo, flows = line_topology(3), (TrafficFlow("h0", "h2", 1e6, 64),)
    plans = {id(channel_from_topology(topo, flows, seed, cap)._feeds)
             for seed, cap in ((0, None), (1, 2), (0, 5))}
    assert len(plans) == 1


def test_first_uniforms_are_each_seeds_first_random():
    """_first_uniforms reseeds one generator in place of a random.Random
    per seed, and must give Random(seed).random() for each, inside a
    shared_draws() block and outside one, for seeds of one, two and three
    32-bit words."""
    seeds = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64]
    seeds += [seed * 1_000_003 + idx for seed in (0, 7, 2**32, 2**62 + 5) for idx in range(3)]
    assert max(seeds) > 2**64
    want = [Random(seed).random() for seed in seeds]
    assert netsim._first_uniforms(seeds) == want
    with shared_draws():
        assert netsim._first_uniforms(seeds[:5]) == want[:5]
        assert netsim._first_uniforms(seeds) == want  # some kept, some new
        assert netsim._first_uniforms(seeds[::-1]) == want[::-1]
    assert netsim._first_uniforms([]) == []


class TestRoute:
    def test_adjacent_single_link(self):
        topo = line_topology(2)
        assert route(topo, "S0", "S1") == [("S0", "S1")]

    def test_same_node_empty_path(self):
        assert route(line_topology(3), "S1", "S1") == []

    def test_three_node_line(self):
        assert route(line_topology(3), "S0", "S2") == [("S0", "S1"), ("S1", "S2")]

    def test_lexicographic_tie_break(self):
        # S0-S1-S3 and S0-S2-S3 tie on hops; S1 < S2 wins
        assert route(diamond_topology(), "S0", "S3") == [("S0", "S1"), ("S1", "S3")]

    def test_host_arguments_resolve_to_switches(self):
        topo = line_topology(3)
        assert route(topo, "h0", "h2") == [("S0", "S1"), ("S1", "S2")]

    def test_route_is_pure(self):
        topo = diamond_topology()
        assert route(topo, "S0", "S3") == route(topo, "S0", "S3")

    def test_route_and_its_reverse_share_no_directed_link(self):
        """A min-hop route visits nodes at growing distance from its source
        and the reverse route at shrinking distance, so no directed link is
        on both; the batch carry of a topology without cross traffic relies
        on it. Equal endpoints give two empty routes."""
        rng = Random(5)
        for case in range(150):
            topo = random_topology(rng)
            for a in topo.switches:
                for b in topo.switches:
                    there, back = route(topo, a, b), route(topo, b, a)
                    assert not set(there) & set(back), (case, a, b)
                    assert (a == b) == (there == back == [])

    def test_disconnected_topology_rejected(self):
        with pytest.raises(TopologyError):
            Topology(switches=("S0", "S1", "S2"), links=(Link("S0", "S1", 0.1, 1e7),),
                     hosts={}, te_master="S0", te_slave="S1")

    def test_bad_host_attachment_rejected(self):
        with pytest.raises(TopologyError):
            Topology(switches=("S0", "S1"), links=(Link("S0", "S1", 0.1, 1e7),),
                     hosts={"h": "S9"}, te_master="S0", te_slave="S1")


class TestDelivery:
    def test_closed_form_two_hops(self):
        # 32 * 8 / 1e7 s = 25.6 us serialization per hop plus 0.1 ms delay
        topo = line_topology(3)
        t = simulate_delivery(topo, (), 32, 0.0)
        assert t == pytest.approx(2 * (0.1 + 0.0256), abs=1e-15)
        assert t == closed_form_delivery(topo, 32, 0.0)  # exact, same arithmetic

    def test_zero_rate_flows_are_noops(self):
        topo = line_topology(3)
        flows = (TrafficFlow("h0", "h2", rate_bps=0.0),)
        assert simulate_delivery(topo, flows, 32, 0.0) == simulate_delivery(topo, (), 32, 0.0)

    def test_cross_traffic_monotonicity(self):
        # adding a flow on the route never decreases any packet's delivery time
        topo = line_topology(3)
        base_flows = (TrafficFlow("h0", "h2", rate_bps=2e6, pkt_bytes=500),)
        more_flows = base_flows + (TrafficFlow("h1", "h2", rate_bps=2e6, pkt_bytes=500),)
        for seed in (1, 2, 3):
            for t_send in (0.0, 0.37, 1.11, 4.2):
                a = simulate_delivery(topo, base_flows, 32, t_send, seed=seed)
                b = simulate_delivery(topo, more_flows, 32, t_send, seed=seed)
                assert b >= a

    def test_saturating_flow_grows_queue_without_bound(self):
        # rate >= bandwidth: successive packets are delayed more and more
        topo = line_topology(2, delay=0.1, bw=1e6)
        flows = (TrafficFlow("h0", "h1", rate_bps=1.5e6, pkt_bytes=1250),)
        lags = []
        for t_send in (10.0, 50.0, 100.0, 200.0):
            t = simulate_delivery(topo, flows, 32, t_send, seed=1)
            lags.append(t - t_send)
        assert lags[1] > lags[0] and lags[2] > lags[1] and lags[3] > lags[2]
        assert lags[3] > 10 * lags[0]

    def test_phase_stability_per_flow(self):
        # flow phases derive from (seed, flow index): existing schedules are
        # unchanged when a later flow is appended
        topo = line_topology(3)
        f1 = (TrafficFlow("h0", "h2", rate_bps=1e6, pkt_bytes=500),)
        f2 = f1 + (TrafficFlow("h2", "h0", rate_bps=1e6, pkt_bytes=500),)
        # the reverse-direction flow never shares links with the forward one,
        # so delivery times must match exactly
        for t_send in (0.0, 3.3, 7.7):
            assert simulate_delivery(topo, f1, 32, t_send, seed=5) == \
                simulate_delivery(topo, f2, 32, t_send, seed=5)

    def test_seed_determinism(self):
        topo = line_topology(3)
        flows = (TrafficFlow("h0", "h2", rate_bps=3e6, pkt_bytes=700),)
        a = simulate_delivery(topo, flows, 32, 2.0, seed=9)
        b = simulate_delivery(topo, flows, 32, 2.0, seed=9)
        assert a == b

    def test_tail_drop_with_finite_queue(self):
        topo = line_topology(2, delay=0.1, bw=1e6)
        flows = (TrafficFlow("h0", "h1", rate_bps=2e6, pkt_bytes=1250),)
        chan = channel_from_topology(topo, flows, seed=1, queue_cap=4)
        # the flow keeps emitting until 500 ms
        chan.round_trip(50.0 + 0.5 * np.arange(40), 1250, 500.0)
        stats = chan.stats[FORWARD]
        assert stats.dropped > 0
        assert stats.delivered + stats.dropped == stats.sent

    def test_a_capped_channel_repeats_its_round_trip(self):
        """A capped link starts every batch at an idle transmitter, so a
        second round trip on one channel gives the first one's arrivals,
        fresh mask and answers: random topologies, caps 1-6, cross traffic,
        some commands tail-dropped."""
        rng = Random(23)
        dropped = 0
        for case in range(60):
            topo = random_topology(rng)
            chan = channel_from_topology(topo, random_flows(rng, topo), rng.randrange(100),
                                         rng.randint(1, 6))
            sends = np.add.accumulate([rng.uniform(0.0, 1.0) for _ in range(rng.randint(1, 60))])
            first, second = ([a.tolist() for a in chan.round_trip(sends, 32, float(sends[-1]))]
                             for _ in range(2))
            assert repr(first) == repr(second), case
            dropped += bool(np.isnan(first[0]).any())
        assert dropped >= 20, dropped

    def test_the_landed_commands_are_the_fresh_ones(self):
        """Every command crosses one FIFO route, so the landed ones arrive
        in send order and each is fresh: on random topologies with cross
        traffic, uncapped and at caps 1 and 2, _fresh_mask of the
        commands' arrivals is the landed mask, the commands the far end
        answers."""
        rng = Random(35)
        dropped = 0
        for case in range(60):
            topo = random_topology(rng)
            flows, seed = random_flows(rng, topo), rng.randrange(100)
            sends = np.add.accumulate([rng.uniform(0.0, 1.0) for _ in range(rng.randint(1, 60))])
            for cap in (None, 1, 2):
                chan = channel_from_topology(topo, flows, seed, cap)
                fwd, picked, _ = chan.round_trip(sends, 32, float(sends[-1]))
                landed = fwd == fwd
                assert np.array_equal(_fresh_mask(fwd), landed), (case, cap)
                assert np.array_equal(picked, landed), (case, cap)
                dropped += not landed.all()
        assert dropped >= 40, dropped

    def test_conservation_each_packet_at_most_once(self):
        topo = line_topology(3)
        flows = (TrafficFlow("h0", "h2", rate_bps=5e6, pkt_bytes=1000),)
        chan = channel_from_topology(topo, flows, seed=2)
        fwd, _, _ = chan.round_trip(0.4 * np.arange(50), 32, 100.0)
        got = np.flatnonzero(fwd == fwd).tolist()  # the packets that landed
        assert sorted(got) == sorted(set(got))
        assert chan.stats[FORWARD].delivered == len(got)


class TestChannelComposition:
    def test_ideal_links_no_flows_equals_path_delay(self):
        topo = line_topology(3)
        chan = channel_from_topology(topo, (), seed=1)
        fwd, _, _ = chan.round_trip(np.array([0.0]), 32, 0.0)
        assert fwd[0] == closed_form_delivery(topo, 32, 0.0)

    def test_backward_direction_routes_reverse(self):
        topo = line_topology(3)
        chan = channel_from_topology(topo, (), seed=1)
        fwd, picked, bwd = chan.round_trip(np.array([0.0]), 32, 0.0)
        assert picked.tolist() == [True]
        assert bwd[0] - fwd[0] == pytest.approx(closed_form_delivery(topo, 32, 0.0))

    def test_bundled_topology_loads(self):
        exp = load_experiment("usnet-nw")
        topo = exp.channel.topology
        assert route(topo, "S0", "S8") == [("S0", "S5"), ("S5", "S8")]
        assert topo.hosts["m0"] == "S0" and topo.hosts["n0"] == "S8"

    def test_loaded_round_trip_runs_off_the_clock(self):
        """A channel under cross traffic gives its round trip without a
        scheduler, as the event-per-packet channel gives it on the clock."""
        topo = line_topology(3)
        flows = (TrafficFlow("h0", "h2", 1e6, 64), TrafficFlow("h2", "h1", 1e6, 200))
        sends = 0.7 * np.arange(30)
        got = channel_from_topology(topo, flows, seed=1).round_trip(sends, 32, 21.0)
        want = netsim_oracle.NetsimChannel(topo, flows, 1).round_trip(sends, 32, 21.0)
        assert repr([a.tolist() for a in got]) == repr([a.tolist() for a in want])
        assert np.isnan(got[0]).sum() == 0 and not np.isnan(got[2]).all()

    def test_pair_flows_template(self):
        flows = pair_flows(3, 250000.0, 64)
        assert len(flows) == 6
        assert flows[0].src == "m0" and flows[0].dst == "n0"
        assert flows[1].src == "n0" and flows[1].dst == "m0"
        assert all(f.rate_bps == 250000.0 and f.pkt_bytes == 64 for f in flows)

    def test_flow_validation(self):
        with pytest.raises(TopologyError):
            TrafficFlow("a", "a", rate_bps=1.0)
        with pytest.raises(TopologyError):
            TrafficFlow("a", "b", rate_bps=-5.0)

    def test_zero_byte_packets_rejected(self):
        # a zero-byte packet has no CBR period, and its flow would never end
        with pytest.raises(TopologyError):
            TrafficFlow("a", "b", rate_bps=1e6, pkt_bytes=0)
