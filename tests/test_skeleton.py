"""Differential test of the skeleton runner against the virtual clock.

`run_step_experiment` computes every simulated step run as a timing
skeleton plus a value recurrence: the channel gives the arrival times of a
whole round trip off the clock, an impaired (or ideal) channel as one batch
per direction and a topology as one batch per link. `tests/step_oracle.py`
keeps the event-driven runner it replaced; on topologies it runs over the
event-per-packet channel of `tests/netsim_oracle.py`. On random channels,
both settings and robot lag, both runners must give the same curve columns,
operator trace and per-direction stats, bit for bit (compared through repr,
so -0.0 differs from 0.0).
"""

from collections import Counter
from random import Random

import numpy as np
import pytest

import carry_oracle
import netsim_oracle
from random_topologies import count_waiting_batches, random_flows, random_topology
from step_oracle import run_step_on_clock
from tcpsbench import transport
from tcpsbench.loopsim import LoopConfig, run_step_experiment
from tcpsbench.netsim import channel_from_topology
from tcpsbench.transport import (
    BACKWARD,
    FORWARD,
    ChannelModel,
    Jitter,
    LinkParams,
    ideal_model,
    shared_draws,
)

CASES = 240
TOPOLOGY_CASES = 240
LOADED_CASES = 240


def _link(rng, delta_ms, size_b):
    jitter = rng.choice((Jitter.none(), Jitter.uniform(rng.uniform(0.0, 3.0)),
                         Jitter.truncnorm(rng.uniform(0.0, 1.0), rng.uniform(0.1, 1.0))))
    # serialization from a fifth of the loop time up to three loop times
    bandwidth = 0.0
    if rng.random() < 0.3:
        bandwidth = size_b * 8.0 / (delta_ms * rng.uniform(0.2, 3.0)) * 1000.0
    return LinkParams(latency_ms=rng.choice((0.0, 0.2, rng.uniform(0.0, 3.0))), jitter=jitter,
                      drop_prob=rng.choice((0.0, 0.0, rng.uniform(0.0, 0.3), 1.0)),
                      bandwidth_bps=bandwidth, fifo=rng.random() < 0.5,
                      drop_seq=frozenset(rng.sample(range(40), rng.randint(0, 3))))


def _case(i):
    rng = Random(7000 + i)
    cfg = LoopConfig(setting=rng.choice(("haptic", "non-haptic")),
                     delta_ms=rng.choice((0.5, 1.0, rng.uniform(0.1, 4.0))),
                     sweep_len=rng.randint(8, 60), packet_size_b=rng.choice((32, 64, 256)),
                     robot_tau_ms=rng.choice((0.0, rng.uniform(0.1, 3.0))),
                     seed=rng.randrange(1000))
    if i % 4 == 0:
        # ideal: latency 0 delivers a command at its own check's instant, and
        # half the loop time returns feedback at the next check's instant
        model = ideal_model(rng.choice((0.0, cfg.delta_ms / 2, rng.uniform(0.0, 2.0))))
    else:
        model = ChannelModel(forward=_link(rng, cfg.delta_ms, cfg.packet_size_b),
                             backward=_link(rng, cfg.delta_ms, cfg.packet_size_b))
    return cfg, model


def _record(rec):
    c = rec.curve
    return repr(([a.tolist() for a in (c.t, c.x, c.y, c.signal)],
                 rec.operator_trace,
                 {d: (s.sent, s.delivered, s.dropped, s.stale)
                  for d, s in sorted(rec.channel_stats.items())}))


@pytest.mark.parametrize("block", range(8))
def test_skeleton_matches_the_clock(block):
    for i in range(block * CASES // 8, (block + 1) * CASES // 8):
        cfg, model = _case(i)
        got = run_step_experiment(cfg, model.build(cfg.seed))
        want = run_step_on_clock(cfg, model.build(cfg.seed))
        assert _record(got) == _record(want), f"case {i}"


def test_cases_cover_the_channel_features():
    """The random cases are not vacuous: they drop packets by chance and by
    index, reorder and queue them, deliver at a check's instant and cover
    every jitter kind, robot lag and both settings."""
    seen = Counter()
    for i in range(CASES):
        cfg, model = _case(i)
        rec = run_step_experiment(cfg, model.build(cfg.seed))
        stats = rec.channel_stats
        links = (model.forward, model.backward)
        seen["random drops"] += any(p.drop_prob > 0.0 for p in links) and any(
            s.dropped for s in stats.values())
        seen["drop_seq"] += any(p.drop_seq and min(p.drop_seq) < stats[d].sent
                                for d, p in zip((FORWARD, BACKWARD), links))
        seen["stale command"] += stats[FORWARD].stale > 0
        seen["stale feedback"] += stats[BACKWARD].stale > 0
        seen["fifo off"] += not model.forward.fifo
        seen["queue longer than delta"] += any(
            p.bandwidth_bps and cfg.packet_size_b * 8.0 / p.bandwidth_bps * 1000.0 > cfg.delta_ms
            for p in links)
        ticks = np.add.accumulate(np.full(cfg.sweep_len, cfg.delta_ms))
        seen["arrival at a check"] += bool(np.isin(rec.curve.t, ticks).any())
        seen["robot lag"] += cfg.robot_tau_ms > 0.0
        seen["non-haptic"] += cfg.setting == "non-haptic"
        for p in links:
            seen[p.jitter.kind] += 1
    for feature in ("random drops", "drop_seq", "stale command", "stale feedback", "fifo off",
                    "queue longer than delta", "arrival at a check", "robot lag", "non-haptic",
                    "none", "uniform", "truncnorm"):
        assert seen[feature] >= 10, (feature, seen)


def _topology_case(i, loaded=False):
    """A random step run across a topology, with serialization from a
    twentieth of the loop time up to three loop times per slow link; when
    loaded, under random cross traffic. The factory builds the engine's
    channel, or with oracle=True the event-per-packet one."""
    rng = Random((9500 if loaded else 8000) + i)
    cfg = LoopConfig(setting=rng.choice(("haptic", "non-haptic")),
                     delta_ms=rng.choice((0.5, 1.0, rng.uniform(0.1, 4.0))),
                     sweep_len=rng.randint(8, 60), packet_size_b=rng.choice((32, 64, 256)),
                     robot_tau_ms=rng.choice((0.0, rng.uniform(0.1, 3.0))),
                     seed=rng.randrange(1000))
    topo = random_topology(rng, cfg.packet_size_b, (0.05 * cfg.delta_ms, 3.0 * cfg.delta_ms))
    flows = random_flows(rng, topo) if loaded else ()
    cap = rng.choice((None, None, rng.randint(1, 6)))
    return cfg, lambda oracle=False: (netsim_oracle.NetsimChannel if oracle else
                                      channel_from_topology)(topo, flows, cfg.seed, cap)


@pytest.mark.parametrize("block", range(4))
def test_tactile_only_topologies_match_the_clock(block):
    for i in range(block * TOPOLOGY_CASES // 4, (block + 1) * TOPOLOGY_CASES // 4):
        cfg, factory = _topology_case(i)
        chan = factory()
        assert not chan._emitters
        got = run_step_experiment(cfg, chan)
        assert _record(got) == _record(run_step_on_clock(cfg, factory(oracle=True))), f"case {i}"


def test_topology_cases_queue_and_tail_drop(monkeypatch):
    """In the topology cases, packets wait for a transmitter (the batch
    falls back to Lindley's recurrence), queues tail-drop, and some routes
    have no hop at all."""
    slow_batches = count_waiting_batches(monkeypatch)
    seen = Counter()
    for i in range(TOPOLOGY_CASES):
        cfg, factory = _topology_case(i)
        chan = factory()
        before = slow_batches[0]
        rec = run_step_experiment(cfg, chan)
        seen["queued"] += slow_batches[0] > before
        seen["tail drop"] += any(s.dropped for s in rec.channel_stats.values())
        seen["zero hop"] += not chan._routes[FORWARD]
    for feature in ("queued", "tail drop", "zero hop"):
        assert seen[feature] >= 10, (feature, seen)


@pytest.mark.parametrize("block", range(4))
def test_loaded_topologies_match_the_clock(block):
    for i in range(block * LOADED_CASES // 4, (block + 1) * LOADED_CASES // 4):
        cfg, factory = _topology_case(i, loaded=True)
        got = run_step_experiment(cfg, factory())
        assert _record(got) == _record(run_step_on_clock(cfg, factory(oracle=True))), f"case {i}"


def test_loaded_cases_keep_flows_and_tail_drop():
    """In the loaded cases, flows survive pruning, and queues tail-drop in
    runs under cross traffic."""
    seen = Counter()
    for i in range(LOADED_CASES):
        cfg, factory = _topology_case(i, loaded=True)
        chan = factory()
        rec = run_step_experiment(cfg, chan)
        loaded = bool(chan._emitters)
        seen["flows kept"] += loaded
        seen["tail drop"] += loaded and any(s.dropped for s in rec.channel_stats.values())
    for feature in ("flows kept", "tail drop"):
        assert seen[feature] >= 10, (feature, seen)


def test_batches_continue_the_per_packet_streams():
    """The carry oracle after transit_time, and transit_time after it, read
    the same draws and leave the same state as transit_time alone."""
    rng = Random(11)
    for case in range(50):
        params = _link(rng, 1.0, 64)
        times = np.add.accumulate(np.array([rng.uniform(0.0, 2.0) for _ in range(60)]))
        seed = rng.randrange(1000)
        one = ChannelModel(forward=params).build(seed)
        want = [one.transit_time(FORWARD, 64, t) for t in times.tolist()]
        mixed = ChannelModel(forward=params).build(seed)
        a, b = sorted(rng.sample(range(61), 2))
        got = [mixed.transit_time(FORWARD, 64, t) for t in times[:a].tolist()]
        got += [None if np.isnan(t) else t for t in
                carry_oracle.carry(mixed, FORWARD, times[a:b], 64).tolist()]
        got += [mixed.transit_time(FORWARD, 64, t) for t in times[b:].tolist()]
        assert repr(got) == repr(want), case
        assert (mixed.stats[FORWARD].sent, mixed.stats[FORWARD].dropped) == (
            one.stats[FORWARD].sent, one.stats[FORWARD].dropped)


def test_shared_draws_seed_each_stream_once(monkeypatch):
    """In a shared_draws block, runs at other loop times reuse the draws of a
    seed: each of its jitter streams is seeded once, and the runs are
    unchanged."""
    seeded = Counter()

    class CountedRandom(transport.Random):
        def __init__(self, seed):
            seeded[seed] += 1
            super().__init__(seed)

    model = ChannelModel(forward=LinkParams(jitter=Jitter.truncnorm(0.1, 0.3)),
                         backward=LinkParams(jitter=Jitter.uniform(0.4)))
    runs = [(LoopConfig(delta_ms=delta), seed) for delta in (0.6, 0.9, 1.4) for seed in (3, 8)]
    alone = [_record(run_step_experiment(cfg, model.build(seed))) for cfg, seed in runs]
    monkeypatch.setattr(transport, "Random", CountedRandom)
    with shared_draws():
        shared = [_record(run_step_experiment(cfg, model.build(seed))) for cfg, seed in runs]
    assert shared == alone
    assert seeded == {seed * 4 + i: 1 for seed in (3, 8) for i in (1, 3)}
