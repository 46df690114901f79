"""The best-first route search that `tcpsbench.netsim.route` replaced, kept
as its oracle.

`route` pops (hops, path) tuples off a heap, so the first time it pops the
destination it holds the minimum-hop path with the smallest node-id
sequence. `tests/test_route.py` compares the breadth-first `route` against
it on random topologies, for every ordered pair of switches.
"""

import heapq

from tcpsbench.netsim import Topology, Unreachable


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
