"""Differential test of the breadth-first route against the best-first
search it replaced (`tests/route_oracle.py`)."""

from random import Random

import route_oracle
from tcpsbench.netsim import Link, Topology, route

GRAPHS = 1000


def _random_graph(rng: Random) -> Topology:
    """A connected graph of 2-12 switches: a random spanning tree plus up to
    n extra links, some of them parallel to others. The ids are drawn from
    S0..S15, so string order differs from numeric order (S10 < S2)."""
    n = rng.randint(2, 12)
    switches = tuple(f"S{i}" for i in rng.sample(range(16), n))
    pairs = [(rng.randrange(i), i) for i in range(1, n)]
    pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n))]
    pairs += rng.choices(pairs, k=rng.randint(0, 2))
    links = tuple(Link(switches[a], switches[b]) for a, b in rng.sample(pairs, len(pairs)))
    return Topology(switches=switches, links=links, hosts={"h": switches[0]},
                    te_master=switches[0], te_slave=switches[-1])


def test_route_matches_the_best_first_search_on_every_pair():
    rng = Random(29)
    pairs = 0
    for _ in range(GRAPHS):
        topo = _random_graph(rng)
        nodes = topo.switches + ("h",)
        for a in nodes:
            for b in nodes:
                assert route(topo, a, b) == route_oracle.route(topo, a, b), (topo, a, b)
                pairs += 1
    assert pairs > 50_000

