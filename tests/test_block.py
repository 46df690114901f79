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
