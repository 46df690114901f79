"""Random connected switch topologies for the differential tests, and a
count of the link-queue batches in which a packet waits."""

from tcpsbench.netsim import Link, Topology, TrafficFlow
from tcpsbench import transport


def random_topology(rng, size_b=32, ser_ms=(0.05, 3.0), zero_hop=0.1):
    """A ring, tree or mesh of 2-8 switches with two hosts on each. About
    half the links are slow: a size_b packet takes a time drawn from ser_ms
    to serialize. The tactile endpoints share a switch with probability
    zero_hop, which gives empty routes."""
    n = rng.randint(2, 8)
    switches = tuple(f"S{i}" for i in range(n))
    kind = rng.choice(("ring", "tree", "mesh"))
    if kind == "ring":
        pairs = [(i, (i + 1) % n) for i in range(n)]
    else:
        pairs = [(rng.randrange(i), i) for i in range(1, n)]
        if kind == "mesh":
            pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, n))]

    def bandwidth():
        if rng.random() < 0.5:
            return rng.choice((1e7, 1e8))
        return size_b * 8.0 / rng.uniform(*ser_ms) * 1000.0

    links = tuple(Link(switches[a], switches[b],
                       rng.choice((0.0, 0.1, 1.0, rng.uniform(0.0, 3.0))), bandwidth())
                  for a, b in pairs)
    hosts = {f"h{i}{j}": s for i, s in enumerate(switches) for j in range(2)}
    if rng.random() < zero_hop:
        te_master = te_slave = rng.choice(switches)
    else:
        te_master, te_slave = rng.sample(switches, 2)
    return Topology(switches=switches, links=links, hosts=hosts,
                    te_master=te_master, te_slave=te_slave)


def random_flows(rng, topo, n_max=8):
    """Up to n_max CBR flows between random hosts, one packet every
    0.1-4 ms."""
    flows = []
    for _ in range(rng.randint(1, n_max)):
        src, dst = rng.sample(sorted(topo.hosts), 2)
        pkt_bytes = rng.choice((64, 200, 1250))
        flows.append(TrafficFlow(src, dst, pkt_bytes * 8.0 / rng.uniform(0.1, 4.0) * 1000.0,
                                 pkt_bytes))
    return tuple(flows)


def count_waiting_batches(monkeypatch):
    """A one-item list that counts transport._run calls from here on:
    transport.carry calls _run only when a packet of its batch waits for
    the transmitter (or the cap is below 1)."""
    calls = [0]
    run = transport._run

    def counted(*args):
        calls[0] += 1
        return run(*args)

    monkeypatch.setattr(transport, "_run", counted)
    return calls
