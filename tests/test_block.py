"""Differential test of the impaired block against the per-channel oracles.

`tcpsbench.transport.ImpairedBlock` runs the round trips of a batch of
trial seeds of one model as the rows of one block, with no channel object
per trial: its state is arrays of send counts, kept counts and last
deliveries by direction and row, and its draws are gathers from the
streams kept by seed. `tests/carry_oracle.py` decides each row on a
channel of its own, with the draws of the per-value stdlib loops, and
`tests/trial_oracle.py` runs each row's whole trial. On random models
(drops by chance and by index, finite bandwidth, FIFO off, uniform,
truncated-normal and no jitter) and batches of 1 to 128 rows over mixed
loop times, with and without shared draws, every row must equal its
oracle bit for bit: the arrival times, the picks, the packet counts and
the stream positions, over two round trips in a row (the second may start
while the first is still delivering, so each row's FIFO clamp and queue
carry over).
"""

import math
from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from random import Random

import numpy as np
import pytest

import carry_oracle
from test_skeleton import _link, _record
from trial_oracle import run_trial
from tcpsbench import transport
from tcpsbench.loopsim import LoopConfig, run_step_batch
from tcpsbench.transport import (
    BACKWARD,
    FORWARD,
    ChannelModel,
    Jitter,
    LinkParams,
    ideal_model,
    shared_draws,
)

CASES = 90


def _case(i):
    """A random model, 1 to 128 rows of seeds (repeats likely in large
    batches) and one of up to four loop times per row."""
    rng = Random(9100 + i)
    loop_times = [rng.choice((0.5, 1.0, rng.uniform(0.1, 4.0))) for _ in range(rng.randint(1, 4))]
    size_b = rng.choice((32, 64, 256))
    if i % 6 == 0:
        model = ideal_model(rng.choice((0.0, rng.uniform(0.0, 2.0))))
    else:
        model = ChannelModel(forward=_link(rng, loop_times[0], size_b),
                             backward=_link(rng, loop_times[0], size_b))
    rows = rng.choice((1, 2, rng.randint(3, 16), rng.randint(17, 128)))
    seeds = [rng.randrange(3 * rows) for _ in range(rows)]
    deltas = [rng.choice(loop_times) for _ in range(rows)]
    cfg = LoopConfig(setting=rng.choice(("haptic", "non-haptic")), sweep_len=rng.randint(8, 60),
                     packet_size_b=size_b, robot_tau_ms=rng.choice((0.0, rng.uniform(0.1, 3.0))))
    return rng, model, seeds, deltas, cfg


def _state(block, r, twin):
    """Row r's stream positions, last deliveries and transmitters, and the
    twin channel's after its oracle carries."""
    def row(b, i):
        return repr((b.sent[:, i].tolist(), b.kept[:, i].tolist(), b.last[:, i].tolist(),
                     b.free_at[:, i].tolist()))

    return row(block, r), row(twin.block, 0)


def _run_round_trips(i, seen):
    rng, model, seeds, deltas, cfg = _case(i)
    block, twins = model.block(seeds), [model.build(s) for s in seeds]
    start = np.zeros(len(seeds))
    for _ in range(2):  # the second round trip continues each row's streams and queues
        steps = np.array(deltas)[:, None] * np.array([rng.choice((1.0, rng.uniform(0.2, 2.0)))
                                                      for _ in range(cfg.sweep_len - 1)])
        sends = np.concatenate([start[:, None], start[:, None] + np.add.accumulate(steps, 1)], 1)
        got = block.round_trips(sends, cfg.packet_size_b, sends[:, -1])
        counts = np.stack([block.sent, block.kept, block.sent - block.kept], -1).swapaxes(0, 1)
        for r, twin in enumerate(twins):
            want = carry_oracle.round_trip(twin, sends[r], cfg.packet_size_b, 0.0)
            assert repr([a[r].tolist() for a in got]) == repr([a.tolist() for a in want]), (i, r)
            assert counts[r].tolist() == [[s.sent, s.delivered, s.dropped]
                                          for s in (twin.stats[FORWARD], twin.stats[BACKWARD])]
            mine, oracle = _state(block, r, twin)
            assert mine == oracle, (i, r)
        # the next round trip may start before this one's last delivery
        start = sends[:, -1] + rng.choice((0.0, rng.uniform(0.0, 2.0), 5.0))
    links = (model.forward, model.backward)
    seen["rows of 1"] += len(seeds) == 1
    seen["rows over 16"] += len(seeds) > 16
    seen["repeated seeds"] += len(set(seeds)) < len(seeds)
    seen["mixed loop times"] += len(set(deltas)) > 1
    seen["random drops"] += bool(counts[:, :, 2].any()) and any(p.drop_prob > 0.0 for p in links)
    seen["drop_seq"] += any(p.drop_seq for p in links)
    seen["bandwidth"] += any(p.bandwidth_bps > 0.0 for p in links)
    seen["fifo off"] += not all(p.fifo for p in links)
    for p in links:
        seen[p.jitter.kind] += 1


@pytest.mark.parametrize("shared", [False, True])
def test_block_rows_match_the_carry_oracle(shared):
    seen = Counter()
    for i in range(CASES):
        if shared:
            with shared_draws():
                _run_round_trips(i, seen)
        else:
            _run_round_trips(i, seen)
    for feature, least in (("rows of 1", 10), ("rows over 16", 10), ("repeated seeds", 10),
                           ("mixed loop times", 10), ("random drops", 10), ("drop_seq", 10),
                           ("bandwidth", 10), ("fifo off", 10), ("none", 20), ("uniform", 20),
                           ("truncnorm", 20)):
        assert seen[feature] >= least, (feature, seen)


@pytest.mark.parametrize("shared", [False, True])
def test_block_step_batches_match_one_trial_at_a_time(shared):
    """run_step_batch over a block gives every row the record of its own
    trial (trial_oracle.run_trial at the row's loop time, on a channel of
    its own), counts included."""
    for i in range(0, CASES, 3):
        _, model, seeds, deltas, cfg = _case(i)
        with shared_draws() if shared else nullcontext():
            batch = run_step_batch(cfg, model.block(seeds), deltas)
        for r, (seed, delta) in enumerate(zip(seeds, deltas)):
            want = run_trial(replace(cfg, delta_ms=delta), model.build(seed))
            assert _record(batch.record(r)) == _record(want), (i, r)


def test_streams_are_drawn_once_per_seed_and_kept_by_the_block(monkeypatch):
    """A block draws each of its distinct seeds' streams once, whatever the
    rows that share a seed, and outside shared_draws keeps them itself."""
    drawn = Counter()
    draw_streams = transport._draw_streams

    def counted(seeds, jitter, size):
        drawn.update(seeds)
        return draw_streams(seeds, jitter, size)

    monkeypatch.setattr(transport, "_draw_streams", counted)
    block = ChannelModel(forward=LinkParams(drop_prob=0.1)).block([5, 9, 5, 5, 9])
    sends = np.tile(np.arange(40) * 0.7, (5, 1))
    block.round_trips(sends, 32, sends[:, -1])
    assert drawn == {4 * 5: 1, 4 * 9: 1} and set(block.streams[None]) == {4 * 5, 4 * 9}
    assert block.sent[0].tolist() == [40] * 5


def _lossy_model(rng):
    """A model whose forward link loses a command now and then, so that a
    batch holds rows that lost some and rows that lost none: a rare drop
    by chance, or jitter that now and then reorders (FIFO off), each
    with drop_seq answers lost, bandwidth or neither on the way back."""
    forward = rng.choice((
        LinkParams(latency_ms=0.3, drop_prob=rng.uniform(0.005, 0.03)),
        LinkParams(latency_ms=0.3, jitter=Jitter.uniform(rng.uniform(1.0, 1.3)), fifo=False),
        LinkParams(jitter=Jitter.truncnorm(0.5, rng.uniform(0.15, 0.3)), fifo=False)))
    backward = rng.choice((LinkParams(latency_ms=0.2),
                           LinkParams(latency_ms=0.2, drop_seq=frozenset({3, 11})),
                           LinkParams(latency_ms=0.2, bandwidth_bps=2e5)))
    return ChannelModel(forward=forward, backward=backward)


def test_only_the_rows_that_lost_a_command_are_compacted():
    """run_step_batch compacts the fresh commands of only the rows that
    lost a command; every other row is its own compaction. In batches
    holding both kinds of row, with and without robot lag, each row's
    record equals its batch of one (which runs on floats) and its own
    trial on the clock."""
    lost = whole = 0
    mixed = [0, 0]  # batches holding both kinds of row, without and with lag
    for i in range(16):
        rng = Random(9700 + i)
        model = _lossy_model(rng)
        cfg = LoopConfig(setting=rng.choice(("haptic", "non-haptic")), sweep_len=40,
                         robot_tau_ms=(0.0, rng.uniform(0.2, 2.0))[i % 2])
        seeds = rng.sample(range(200), 12)
        batch = run_step_batch(cfg, model.block(seeds))
        lost_here = int(np.count_nonzero(batch.curves.lengths < cfg.sweep_len))
        lost, whole = lost + lost_here, whole + len(seeds) - lost_here
        mixed[i % 2] += 0 < lost_here < len(seeds)
        for r, seed in enumerate(seeds):
            want = _record(run_trial(cfg, model.build(seed)))
            assert _record(batch.record(r)) == want, (i, r)
            assert _record(run_step_batch(cfg, model.block([seed])).record(0)) == want, (i, r)
    assert lost >= 40 and whole >= 40 and min(mixed) >= 6, (lost, whole, mixed)


def _carried(model, seeds, masks, direction, t, size_b):
    """A fresh block of the seeds after two carries of t, one per mask;
    its outputs and state, as lists (whose repr shows every bit)."""
    block = model.block(seeds)
    out = [block.carry(direction, t, mask, size_b).tolist() for mask in masks]
    return out, [a.tolist() for a in (block.sent, block.kept, block.last, block.free_at)]


def test_a_mask_that_sends_every_column_carries_as_none():
    """ImpairedBlock.carry reads a mask with every column set as None: the
    same outputs and stream positions, last deliveries and transmitters,
    bit for bit. A mask with one column unset is no such mask: its row
    sends one packet fewer and gets NaN in that column."""
    seen = Counter()
    for i in range(60):
        rng = Random(9800 + i)
        size_b = rng.choice((32, 256))
        model = ChannelModel(forward=_link(rng, 1.0, size_b), backward=_link(rng, 1.0, size_b))
        seeds = [rng.randrange(50) for _ in range(rng.randint(1, 12))]
        rows, n = len(seeds), rng.randint(2, 50)
        t = np.add.accumulate(np.array([[rng.uniform(0.1, 2.0) for _ in range(n)]
                                        for _ in range(rows)]), axis=1)
        direction = rng.choice((FORWARD, BACKWARD))
        every = np.ones((rows, n), dtype=bool)
        assert repr(_carried(model, seeds, [every, every], direction, t, size_b)) \
            == repr(_carried(model, seeds, [None, None], direction, t, size_b)), i
        one_off = every.copy()
        r, c = rng.randrange(rows), rng.randrange(n)
        one_off[r, c] = False
        (_, out), (sent, *_) = _carried(model, seeds, [None, one_off], direction, t, size_b)
        assert math.isnan(out[r][c]) and sent[int(direction == BACKWARD)][r] == 2 * n - 1, i
        p = model.forward if direction == FORWARD else model.backward
        seen["bandwidth"] += p.bandwidth_bps > 0.0
        seen["drop_seq"] += bool(p.drop_seq)
        seen["drop_prob"] += p.drop_prob > 0.0
    assert min(seen["bandwidth"], seen["drop_seq"], seen["drop_prob"]) >= 10, seen
