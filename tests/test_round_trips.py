"""Differential test of the channel round trips against the per-channel carry.

`ChannelRows` runs the round trips of a batch of channels one at a time
into (rows x sends) blocks, and an impaired channel's `round_trip` is its
ImpairedBlock of one (`tests/test_block.py` checks blocks of many rows).
`tests/carry_oracle.py` keeps the per-channel carry. On random batches of
impaired channels (drops by chance and by index, finite bandwidth, FIFO
off, every jitter kind, rows of 1, channels that carried packets before,
with and without shared draws) every row must equal the oracle's round
trip on a twin channel bit for bit, leave the same channel state, and let
the per-packet transit_time continue the same streams.

Every channel kind keeps one round-trip contract: `round_trip` is row 0 of
`ChannelRows([channel])`, an impaired or ideal channel's also row 0 of its
model's block of its seed, and the far end answers the commands the clock
would take fresh, in delivery order.
"""

from collections import Counter
from random import Random

import numpy as np
import pytest

import carry_oracle
from test_skeleton import _case as _step_case
from test_skeleton import _link, _topology_case
from tcpsbench.transport import (
    BACKWARD,
    FORWARD,
    ChannelModel,
    ChannelRows,
    ImpairedChannel,
    ideal_model,
    shared_draws,
)

CASES = 300


def _state(chan):
    """Everything a round trip changes on a channel, as a comparable repr."""
    out = []
    block = chan.block
    for d, direction in enumerate((FORWARD, BACKWARD)):
        # the drop stream's position is the send count, the jitter
        # stream's the count of kept packets
        st = chan.stats[direction]
        out.append((int(block.sent[d, 0]), float(block.last[d, 0]), int(block.kept[d, 0]),
                    float(block.free_at[d, 0]), st.sent, st.delivered, st.dropped))
    return repr(out)


def _history(rng, chans, twins):
    """The same random earlier traffic on each channel and its twin:
    per-packet sends, or an oracle round trip."""
    for chan, twin in zip(chans, twins):
        if rng.random() < 0.5:
            continue
        times = np.add.accumulate([rng.uniform(0.0, 1.5) for _ in range(rng.randint(1, 30))])
        if rng.random() < 0.5:
            for t in times.tolist():
                d = rng.choice((FORWARD, BACKWARD))
                assert repr(chan.transit_time(d, 64, t)) == repr(twin.transit_time(d, 64, t))
        else:
            for c in (chan, twin):
                carry_oracle.round_trip(c, times, 64, 0.0)


def _case(i):
    rng = Random(4200 + i)
    model = ChannelModel(forward=_link(rng, 1.0, 64), backward=_link(rng, 1.0, 64))
    rows = rng.choice((1, 1, rng.randint(2, 9)))
    seeds = [rng.randrange(500) for _ in range(rows)]
    gap = rng.choice((0.3, 1.0, rng.uniform(0.05, 3.0)))
    sends = np.add.accumulate([0.0] + [gap * rng.choice((1.0, rng.uniform(0.0, 2.0)))
                                       for _ in range(rng.randint(0, 70))])
    return rng, model, seeds, sends, rng.choice((32, 64, 256))


def _run_case(i, seen):
    rng, model, seeds, sends, size_b = _case(i)
    chans, twins = [model.build(s) for s in seeds], [model.build(s) for s in seeds]
    _history(rng, chans, twins)
    if len(chans) == 1 and rng.random() < 0.5:
        got = [chans[0].round_trip(sends, size_b, 0.0)]
    else:
        got = list(zip(*ChannelRows(chans).round_trips(sends, size_b, 0.0)))
    for r, twin in enumerate(twins):
        assert np.isnan(got[r][2][~got[r][1]]).all()
        want = carry_oracle.round_trip(twin, sends, size_b, 0.0)
        assert repr([a.tolist() for a in got[r]]) == repr([a.tolist() for a in want]), (i, r)
        assert _state(chans[r]) == _state(twin), (i, r)
    # the per-packet path continues the same streams from the same state
    for chan, twin in zip(chans, twins):
        t = float(sends[-1]) if len(sends) else 0.0
        for _ in range(rng.randint(1, 12)):
            t += rng.uniform(0.0, 1.5)
            d = rng.choice((FORWARD, BACKWARD))
            assert repr(chan.transit_time(d, size_b, t)) == repr(twin.transit_time(d, size_b, t))
        assert _state(chan) == _state(twin), i
    links = (model.forward, model.backward)
    seen["rows of 1"] += len(chans) == 1
    seen["rows of several"] += len(chans) > 1
    seen["random drops"] += any(p.drop_prob > 0.0 for p in links)
    seen["drop_seq"] += any(p.drop_seq for p in links)
    seen["bandwidth"] += any(p.bandwidth_bps > 0.0 for p in links)
    seen["fifo off"] += not all(p.fifo for p in links)
    seen["carried before"] += any(c.block.sent[0, 0] > len(sends) for c in chans)
    for p in links:
        seen[p.jitter.kind] += 1


@pytest.mark.parametrize("block", range(3))
def test_round_trips_match_the_per_channel_oracle(block):
    seen = Counter()
    with shared_draws():
        for i in range(block * CASES // 3, (block + 1) * CASES // 3):
            _run_case(i, seen)


def test_round_trips_match_without_shared_draws_and_cover_the_features():
    seen = Counter()
    for i in range(CASES):
        _run_case(i, seen)
    for feature in ("rows of 1", "rows of several", "random drops", "drop_seq", "bandwidth",
                    "fifo off", "carried before", "none", "uniform", "truncnorm"):
        assert seen[feature] >= 20, (feature, seen)


def test_rows_of_two_models_match_the_per_channel_oracle():
    """A ChannelRows block takes impaired channels of different models:
    rows of two models, alternating, each equal the oracle's round trip on
    a twin and leave the same channel state."""
    for i in range(60):
        _, model, seeds, sends, size_b = _case(i)
        other = _case(CASES + i)[1]
        models = [(model, other)[r % 2] for r in range(max(2, len(seeds)))]
        seeds = [seeds[r % len(seeds)] for r in range(len(models))]
        chans = [m.build(s) for m, s in zip(models, seeds)]
        got = list(zip(*ChannelRows(chans).round_trips(sends, size_b, 0.0)))
        for r, (m, seed) in enumerate(zip(models, seeds)):
            twin = m.build(seed)
            want = carry_oracle.round_trip(twin, sends, size_b, 0.0)
            assert repr([a.tolist() for a in got[r]]) == repr([a.tolist() for a in want]), (i, r)
            assert _state(chans[r]) == _state(twin), (i, r)


def _contract_cases():
    """(kind, channel factory, loop config) of random step runs:
    impaired and ideal channels, and topology channels tactile-only and
    loaded, each also as the event-per-packet oracle channel."""
    for i in range(60):
        cfg, model = _step_case(i)
        kind = "ideal" if model == ideal_model(model.forward.latency_ms) else "impaired"
        yield kind, lambda model=model, seed=cfg.seed: model.build(seed), cfg
        for loaded in (False, True) if i % 2 == 0 else ():
            cfg, factory = _topology_case(4 * i, loaded)
            kind = "loaded" if loaded else "tactile-only"
            yield kind, factory, cfg
            yield kind + " oracle", lambda factory=factory: factory(oracle=True), cfg


def test_round_trip_is_row_0_of_round_trips_and_answers_the_fresh_commands():
    """On every channel kind, a step run's round trip equals row 0 of
    ChannelRows' round_trips on a twin, and on an impaired or ideal channel
    row 0 of its model's block of its seed too; the far end answers
    exactly the commands the clock's delivery order takes fresh."""
    seen = Counter()
    for kind, factory, cfg in _contract_cases():
        sends = np.concatenate(([0.0], np.add.accumulate(np.full(cfg.sweep_len - 1,
                                                                 cfg.delta_ms))))
        args = (sends, cfg.packet_size_b, float(sends[-1] + cfg.delta_ms))
        chan, twin = factory(), factory()
        got = chan.round_trip(*args)
        want = [block[0] for block in ChannelRows([twin]).round_trips(*args)]
        assert repr([a.tolist() for a in got]) == repr([a.tolist() for a in want]), kind
        assert chan.stats == twin.stats, kind
        if isinstance(chan, ImpairedChannel):
            block = chan.model.block([chan.seed])
            want = [rows[0] for rows in block.round_trips(*args)]
            assert repr([a.tolist() for a in got]) == repr([a.tolist() for a in want]), kind
            stats = [(s.sent, s.delivered, s.dropped) for s in chan.stats.values()]
            sent, kept = block.sent[:, 0].tolist(), block.kept[:, 0].tolist()
            assert [[s, k, s - k] for s, k in zip(sent, kept)] == [list(s) for s in stats], kind
        fwd, picked, bwd = got
        assert picked.dtype == bool and (picked == carry_oracle.picks(fwd)).all(), kind
        assert np.isnan(bwd[~picked]).all(), kind
        seen[kind] += 1
        seen["stale"] += int(np.count_nonzero(fwd == fwd)) > int(np.count_nonzero(picked))
        seen["lost answer"] += bool(np.isnan(bwd[picked]).any())
    assert seen["stale"] >= 5 and seen["lost answer"] >= 5, seen
    assert seen["ideal"] >= 5 and seen["impaired"] >= 5, seen
