"""Differential test of the batched step runner against the per-trial one.

`run_step_batch` runs a batch of trials at one configuration as one block,
each trial at its own loop time: the block's round trips (here mostly a
`ChannelRows`, each channel's round trip in turn) give its timing columns, and the PI update, robot lag and step plant run once per
batch with the trial as the array axis. `tests/trial_oracle.py` keeps the
runner that took one trial at a time with a scalar recurrence. Over any
batch of channels, record i of the batch must equal the oracle's run on
channel i at its loop time, bit for bit (compared through repr, so -0.0
differs from 0.0). The searches run their trials through these batches;
their probe's early exit must stay that of one trial at a time, and the
curve search must run every trial the one-point-at-a-time search runs.
"""

import tracemalloc
from collections import Counter
from dataclasses import astuple, replace
from random import Random

import numpy as np
import pytest

import search_oracle
from curves import batch_of
from test_skeleton import _case, _record, _topology_case
from trial_oracle import run_trial
from tcpsbench import qoc
from tcpsbench.core import MALFORMED, extract_metrics_batch
from tcpsbench.experiments import PRESET_NAMES, load_experiment
from tcpsbench.loopsim import MAX_SWEEP_LEN, LoopConfig, run_step_batch, run_step_experiment
from tcpsbench.netsim import (
    Link,
    Topology,
    TrafficFlow,
    channel_from_topology,
    pair_flows,
)
from tcpsbench.qoc import (
    BLOCK_TRIALS,
    PROBE_TRIALS,
    WAVE_TRIALS,
    SearchConfig,
    StepRunner,
    ci_halfwidth,
    perf_curve,
)
from tcpsbench.transport import (
    BACKWARD,
    FORWARD,
    ChannelModel,
    ChannelRows,
    ImpairedChannel,
    Jitter,
    LinkParams,
    shared_draws,
)


def _assert_batch_matches(cfg, factory, seeds, label):
    batch = run_step_batch(cfg, ChannelRows([factory(s) for s in seeds]))
    assert len(batch.curves.lengths) == len(seeds)
    for i, seed in enumerate(seeds):
        want = run_trial(cfg, factory(seed))
        assert _record(batch.record(i)) == _record(want), (label, seed)


@pytest.mark.parametrize("block", range(4))
def test_random_channels_match_one_trial_at_a_time(block):
    """The random impaired cases of the skeleton test (drops by chance and
    by index, reordering, finite bandwidth, robot lag, both settings), each
    as a batch of 1 to 12 seeds."""
    for i in range(block * 60, (block + 1) * 60):
        cfg, model = _case(i)
        rng = Random(i)
        seeds = [cfg.seed + j for j in range(rng.randint(1, 12))]
        _assert_batch_matches(cfg, model.build, seeds, i)


@pytest.mark.parametrize("block", range(2))
def test_rows_at_several_loop_times_match_one_trial_at_a_time(block):
    """A batch whose rows run at loop times of their own, as the waves of
    a curve search do, rows of one loop time apart or together: row j
    equals the oracle's trial at row j's loop time, over the random
    impaired cases and random topology channels, tactile-only and loaded
    (whose cross traffic drains at the row's own last tick)."""
    for i in range(block * 120, (block + 1) * 120):
        cfg, model = _case(i)
        rng = Random(i)
        deltas = [rng.choice((cfg.delta_ms, 0.5, 1.0, rng.uniform(0.1, 4.0)))
                  for _ in range(rng.randint(1, 12))]
        seeds = [cfg.seed + j for j in range(len(deltas))]
        batch = run_step_batch(cfg, ChannelRows([model.build(s) for s in seeds]), deltas)
        for j, (delta, seed) in enumerate(zip(deltas, seeds)):
            want = run_trial(replace(cfg, delta_ms=delta), model.build(seed))
            assert _record(batch.record(j)) == _record(want), (i, j)
    for i in range(block, 240, 16):
        for loaded in (False, True):
            cfg, factory = _topology_case(i, loaded)
            deltas = [cfg.delta_ms, 2.0 * cfg.delta_ms, cfg.delta_ms, 0.7]
            batch = run_step_batch(cfg, ChannelRows([factory() for _ in deltas]), deltas)
            for j, delta in enumerate(deltas):
                want = run_trial(replace(cfg, delta_ms=delta), factory())
                assert _record(batch.record(j)) == _record(want), (i, loaded, j)


def test_loop_times_are_one_positive_finite_value_per_row():
    model = ChannelModel()
    for deltas in ([1.0], [1.0, 0.0], [1.0, -0.5], [float("nan"), 1.0], [1.0, float("inf")]):
        with pytest.raises(ValueError):
            run_step_batch(LoopConfig(), ChannelRows([model.build(0), model.build(1)]), deltas)


def test_random_cases_cover_the_features():
    seen = Counter()
    for i in range(240):
        cfg, model = _case(i)
        links = (model.forward, model.backward)
        seen["random drops"] += any(p.drop_prob > 0.0 for p in links)
        seen["drop_seq"] += any(p.drop_seq for p in links)
        seen["bandwidth"] += any(p.bandwidth_bps > 0.0 for p in links)
        seen["robot lag"] += cfg.robot_tau_ms > 0.0
        seen["non-haptic"] += cfg.setting == "non-haptic"
    assert min(seen.values()) >= 20 and len(seen) == 5, seen


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_presets_match_one_trial_at_a_time(preset):
    exp = load_experiment(preset)
    for delta in (0.6, exp.loop.delta_ms, 2.7):
        cfg = replace(exp.loop, delta_ms=delta)
        _assert_batch_matches(cfg, exp.channel.factory, [exp.search.trial_seed(j) for j in range(8)],
                              (preset, delta))


def test_topologies_match_one_trial_at_a_time():
    """Random tactile-only and loaded topologies of the skeleton test, and
    usnet-nw under the pair flows of the netsim benchmark."""
    for i in range(0, 240, 8):
        for loaded in (False, True):
            cfg, factory = _topology_case(i, loaded)
            batch = run_step_batch(cfg, ChannelRows([factory() for _ in range(3)]))
            want = _record(run_trial(cfg, factory()))
            assert all(_record(batch.record(j)) == want for j in range(3)), (i, loaded)
    exp = load_experiment("usnet-nw")
    topo = exp.channel.topology
    placed = Topology(switches=topo.switches, links=topo.links, hosts=topo.hosts,
                      te_master="S0", te_slave="S8")
    flows = pair_flows(16, 500000.0, 64)
    cfg = replace(exp.loop, delta_ms=3.1)
    _assert_batch_matches(cfg, lambda seed: channel_from_topology(placed, flows, seed),
                          [exp.search.trial_seed(j) for j in range(3)], "usnet-nw loaded")


def _round_trip_kinds():
    """Factories (seed -> channel) of three kinds of channel: impaired
    channels of two models, and a topology channel under cross traffic."""
    lossy = ChannelModel(forward=LinkParams(drop_prob=0.2, jitter=Jitter.uniform(1.5)),
                         backward=LinkParams(drop_prob=0.1, bandwidth_bps=1e5))
    slow = ChannelModel(forward=LinkParams(latency_ms=2.5, jitter=Jitter.truncnorm(0.1, 0.3)),
                        backward=LinkParams(fifo=False, jitter=Jitter.uniform(3.0)))
    topo = Topology(switches=("s0", "s1", "s2"),
                    links=(Link("s0", "s1", 0.5, 1e6), Link("s1", "s2", 0.5, 1e6)),
                    hosts={"a": "s0", "b": "s2"}, te_master="s0", te_slave="s2")
    flows = (TrafficFlow("a", "b", 2e5, 64),)
    return lossy.build, slow.build, lambda s: channel_from_topology(topo, flows, s)


def test_each_batch_runs_its_round_trips_in_one_call(monkeypatch):
    """A batch of impaired channels of one model, or of topology channels,
    runs its round trips in one call of its block's round_trips, and every
    row still equals its own trial."""
    calls = []
    round_trips = ChannelRows.round_trips

    def counted(self, *args):
        calls.append((type(self), len(self)))
        return round_trips(self, *args)

    monkeypatch.setattr(ChannelRows, "round_trips", counted)
    cfg = LoopConfig(delta_ms=0.8)
    for factory, rows in zip(_round_trip_kinds(), (3, 2, 4)):
        calls.clear()
        batch = run_step_batch(cfg, ChannelRows([factory(seed) for seed in range(rows)]))
        assert calls == [(ChannelRows, rows)]
        for seed in range(rows):
            assert _record(batch.record(seed)) == _record(run_trial(cfg, factory(seed))), seed


def test_a_batch_of_mixed_channels_runs_each_row_as_its_own_trial():
    """A ChannelRows block takes channels of any kinds: impaired channels
    of two models and topology channels, interleaved, give row by row each
    channel's own trial, at one loop time or at a loop time per row. A
    block with no rows is refused."""
    lossy, slow, topology = _round_trip_kinds()
    factories = [lossy, topology, slow, lossy, topology, slow, slow]
    cfg = LoopConfig(delta_ms=0.8)
    for deltas in (None, [0.8, 1.3, 0.5, 0.8, 2.0, 1.3, 0.7]):
        rows = ChannelRows([factory(seed) for seed, factory in enumerate(factories)])
        batch = run_step_batch(cfg, rows, deltas)
        for seed, factory in enumerate(factories):
            trial = cfg if deltas is None else replace(cfg, delta_ms=deltas[seed])
            assert _record(batch.record(seed)) == _record(run_trial(trial, factory(seed))), seed
    for empty in (ChannelRows([]), ChannelModel().block([])):
        with pytest.raises(ValueError, match="at least one row"):
            run_step_batch(LoopConfig(), empty)


def test_round_trips_run_one_channel_at_a_time_into_blocks_of_their_own():
    """ChannelRows.round_trips finishes a channel's round trip before the
    next one starts, and copies its rows into blocks that own their memory:
    a round trip may return views of larger arrays (here each traced one
    returns its arrival times as views of one array), which the blocks
    must not keep alive; a block of one row too."""
    *_, topology = _round_trip_kinds()
    for rows in (5, 1):
        events, returned = [], []
        channels = [topology(seed) for seed in range(rows)]
        for seed, chan in enumerate(channels):
            def traced(*args, seed=seed, round_trip=chan.round_trip):
                events.append(("start", seed))
                fwd, picked, bwd = round_trip(*args)
                both = np.concatenate([fwd, bwd])
                returned.append((both[:len(fwd)], picked, both[len(fwd):]))
                events.append(("end", seed))
                return returned[-1]

            chan.round_trip = traced
        sends = 0.5 * np.arange(40)
        blocks = ChannelRows(channels).round_trips(sends, 32, float(sends[-1]))
        assert events == [(e, seed) for seed in range(rows) for e in ("start", "end")]
        arrivals = [a for fwd, _, bwd in returned for a in (fwd, bwd)]
        assert any(a.base is not None for a in arrivals)
        for block in blocks:
            assert block.flags.owndata and block.shape == (rows, 40)
            assert not any(np.shares_memory(block, a) for a in arrivals)


def test_round_trips_of_topologies_match_the_clock():
    """ChannelRows.round_trips over random topology channels of the
    skeleton test, tactile-only and loaded, four to a batch, gives row by
    row the round trip and the stats of the event-per-packet channel of
    tests/netsim_oracle.py."""
    for i in range(0, 240, 12):
        for loaded in (False, True):
            cases = [_topology_case(j, loaded) for j in range(i, i + 4)]
            cfg = cases[0][0]
            sends = np.concatenate(([0.0], np.add.accumulate(np.full(cfg.sweep_len - 1,
                                                                     cfg.delta_ms))))
            args = (sends, cfg.packet_size_b, float(sends[-1] + cfg.delta_ms))
            channels = [factory() for _, factory in cases]
            got = ChannelRows(channels).round_trips(*args)
            for r, (chan, (_, factory)) in enumerate(zip(channels, cases)):
                oracle = factory(oracle=True)
                want = oracle.round_trip(*args)
                assert repr([a[r].tolist() for a in got]) == repr([a.tolist() for a in want]), \
                    (i, loaded, r)
                assert chan.stats == oracle.stats, (i, loaded, r)


def test_batch_stats_are_each_trials_own():
    model = ChannelModel(forward=LinkParams(drop_prob=0.2, drop_seq=frozenset({3})),
                         backward=LinkParams(drop_prob=0.2))
    batch = run_step_batch(LoopConfig(), ChannelRows([model.build(s) for s in range(6)]))
    for i in range(6):
        stats = run_trial(LoopConfig(), model.build(i)).channel_stats
        assert batch.record(i).channel_stats == stats
        assert stats[FORWARD].dropped and stats[BACKWARD].dropped


def _reused_channel(kind):
    """(channel, config): an impaired channel that drops both ways, or the
    vrep-like topology channel at its preset's loop."""
    if kind == "vrep-like":
        exp = load_experiment(kind)
        return exp.channel.factory(exp.loop.seed), exp.loop
    lossy = ChannelModel(forward=LinkParams(drop_prob=0.2, jitter=Jitter.uniform(1.5)),
                         backward=LinkParams(drop_prob=0.1))
    return lossy.build(3), LoopConfig(delta_ms=0.8)


@pytest.mark.parametrize("kind", ["lossy", "vrep-like"])
def test_a_record_counts_only_its_own_run(kind):
    """Run twice on one channel, the second record counts its own run
    alone: its (sent, delivered, dropped) in each direction are the
    channel's stats after that run less its stats before it. It used to
    read the channel's lifetime counts (200 commands sent for a run of
    100) beside its own run's stale counts."""
    chan, cfg = _reused_channel(kind)
    run_step_experiment(cfg, chan)
    before = {d: astuple(s)[:3] for d, s in chan.stats.items()}
    record = run_step_experiment(cfg, chan)
    for d, s in chan.stats.items():
        own = astuple(record.channel_stats[d])[:3]
        assert own == tuple(a - b for a, b in zip(astuple(s)[:3], before[d])), d
    assert record.channel_stats[FORWARD].sent == cfg.sweep_len
    if kind == "lossy":
        assert all(s.dropped for s in record.channel_stats.values())


class _LenAndRoundTrips:
    """A block with nothing but len and round_trips, both forwarded to a
    ChannelRows, counting the round_trips calls."""

    def __init__(self, rows):
        self._rows, self.calls = rows, 0

    def __len__(self):
        return len(self._rows)

    def round_trips(self, *args):
        self.calls += 1
        return self._rows.round_trips(*args)


def test_a_block_is_len_and_round_trips():
    """run_step_batch needs of a block only its len and one round_trips
    call: a block of just these two gives the records of the ChannelRows
    it forwards to."""
    factories = _round_trip_kinds()
    cfg = LoopConfig(delta_ms=0.8)
    for deltas in (None, [0.8, 1.3, 0.5]):
        block = _LenAndRoundTrips(ChannelRows([f(seed) for seed, f in enumerate(factories)]))
        got = run_step_batch(cfg, block, deltas)
        want = run_step_batch(cfg, ChannelRows([f(seed) for seed, f in enumerate(factories)]),
                              deltas)
        assert block.calls == 1
        for i in range(len(factories)):
            assert _record(got.record(i)) == _record(want.record(i)), (deltas, i)


def test_curve_search_work_count(monkeypatch):
    """`curve` on testbed-overhead-like runs its trials as the rows of
    impaired blocks and builds no channel object. The one-point-at-a-time
    search (tests/search_oracle.py) runs 1825 trials, 17 of them malformed
    (all in rejection probes), in 64 run_batch calls; the waves run every
    one of them and at most 10% more, in at most 32 calls of at most
    WAVE_TRIALS trials each, every (delta, seed) once."""
    exp = load_experiment("testbed-overhead-like")
    built = Counter()
    init = ImpairedChannel.__init__

    def counted_init(self, model, seed):
        built[seed] += 1
        init(self, model, seed)

    monkeypatch.setattr(ImpairedChannel, "__init__", counted_init)

    malformed, blocks, ran = set(), [], Counter()
    extract = qoc.extract_metrics_batch

    def counted(curves, limits):
        outcome, t_r = extract(curves, limits)
        malformed.update(t for t, o in zip(blocks[-1], outcome) if o == MALFORMED)
        return outcome, t_r

    run_batch = StepRunner.run_batch

    def counted_blocks(self, trials):
        blocks.append(trials)
        ran.update(trials)
        return run_batch(self, trials)

    monkeypatch.setattr(qoc, "extract_metrics_batch", counted)
    monkeypatch.setattr(StepRunner, "run_batch", counted_blocks)
    specs = [0.5, 0.7, 0.9, 0.95]
    want = search_oracle.perf_curve(exp.runner(), specs, exp.search)
    oracle_ran, oracle_malformed = set(ran), set(malformed)
    assert not built and len(oracle_ran) == 1825 and len(blocks) == 64
    assert len(oracle_malformed) == 17
    for seen in (blocks, ran, built, malformed):
        seen.clear()
    got = perf_curve(exp.runner(), specs, exp.search)
    assert repr(got) == repr(want) and not got.missing
    assert oracle_ran <= set(ran) and max(ran.values()) == 1
    assert malformed & oracle_ran == oracle_malformed
    sizes = [len(trials) for trials in blocks]
    assert not built and sum(ran.values()) == sum(sizes) <= 1825 * 1.10
    assert len(sizes) <= 32 and max(sizes) <= WAVE_TRIALS, sizes


class _TableRunner:
    """Trials whose verdict comes from a table: a good ideal-channel curve
    or a flat one without a step. It records the seeds it runs."""

    limits = qoc.DEFAULT_LIMITS

    def __init__(self, table):
        self.table, self.ran, self.batches = table, [], []
        good = StepRunner(cfg=LoopConfig(), channel_factory=lambda s: ChannelModel().build(s))
        self.good = good.run(1.0, 0).curve
        self.flat = replace(self.good, signal=np.full(len(self.good.t), 100.0))

    def run_batch(self, trials):
        seeds = [s for _, s in trials]
        self.ran.extend(seeds)
        self.batches.append(seeds)
        return batch_of([self.good if self.table[s] else self.flat for s in seeds])


def _hopeless(g_spec):
    """The probe's stopping rule: even if every trial left were good, the
    upper 95% bound on goodness stays below g_spec."""

    def hopeless(good, done):
        best_g = (good + PROBE_TRIALS - done) / PROBE_TRIALS
        return best_g + ci_halfwidth(best_g, PROBE_TRIALS) < g_spec

    return hopeless


def _probe_one_at_a_time(table, g_spec):
    """The probe as a loop over single trials: its verdict and its trials."""
    hopeless, good, ran = _hopeless(g_spec), 0, []
    for i in range(PROBE_TRIALS):
        ran.append(i)
        good += table[i]
        if hopeless(good, i + 1):
            return True, ran
    return False, ran


def test_probe_batches_stop_where_one_trial_at_a_time_does():
    """The probe runs its trials in batches, yet it runs exactly the trials
    and returns exactly the verdict of one trial at a time, for every
    outcome pattern and targets inside and outside (0, 1]."""
    search = SearchConfig(seed=0)
    rng = Random(5)
    exits = Counter()
    for case in range(600):
        table = {search.trial_seed(i): rng.random() < rng.choice((0.2, 0.5, 0.9))
                 for i in range(PROBE_TRIALS)}
        g_spec = rng.choice((0.3, 0.5, 0.7, 0.9, 0.95, 1.0, 1.05, rng.uniform(0.0, 1.2)))
        runner = _TableRunner(table)
        got = qoc._rejectable(runner, 1.0, search, g_spec)
        want, ran = _probe_one_at_a_time([table[search.trial_seed(i)]
                                          for i in range(PROBE_TRIALS)], g_spec)
        assert (got, runner.ran) == (want, [search.trial_seed(i) for i in ran]), case
        _check_blocks(runner, table, search, range(1, PROBE_TRIALS + 1), _hopeless(g_spec))
        exits[len(ran) < PROBE_TRIALS] += 1
    assert exits[True] >= 50 and exits[False] >= 50, exits


def _check_blocks(runner, table, search, checks, stop):
    """Each run_batch call of a scan runs the unknown trials from the end
    of the previous call's block up to a check. No check before that end
    could have stopped the scan, whatever the outcome of the block's
    trials (brute force over every good count), and a block that could
    not stop at its end either is at the last check or was cut where the
    next check would take its span past BLOCK_TRIALS; a block runs more
    trials than that only to reach its first check. Returns whether a
    block was cut."""
    good = [table[search.trial_seed(i)] for i in range(checks[-1])]
    index = {search.trial_seed(i): i for i in range(checks[-1])}
    start, cut = 0, False
    for seeds in runner.batches:
        block = {index[s] for s in seeds}

        def could_stop(c):
            known = sum(g for i, g in enumerate(good[:c]) if i not in block)
            return any(stop(known + k, c) for k in range(sum(i < c for i in block) + 1))

        end = next(c for c in checks if c > max(block))
        assert len(block) <= max(BLOCK_TRIALS, checks[0]), seeds  # at least one check
        assert not any(could_stop(c) for c in checks if start < c < end), (seeds, start, end)
        if end < checks[-1] and not could_stop(end):
            assert checks[list(checks).index(end) + 1] - start > BLOCK_TRIALS, (seeds, end)
            cut = True
        start = end
    return cut


def test_estimate_blocks_run_the_trials_of_one_batch_at_a_time():
    """The estimate runs its trials in blocks, yet it returns the same
    GoodnessEstimate and runs the same trials in the same order as one
    batch at a time (tests/search_oracle.py), for goodness near 0, 0.2,
    0.5, 0.9 and 1, m_max a multiple of m_batch or not, m_batch above
    BLOCK_TRIALS, with and without the probe's trials in the memo; its
    blocks end where they could stop and no later (_check_blocks)."""
    rng = Random(14)
    seen = Counter()
    for case in range(600):
        p = rng.choice((0.0, 0.03, 0.2, 0.5, 0.5, 0.9, 0.97, 1.0))
        m_max, m_batch = rng.choice(((50, 20), (200, 20), (400, 20), (130, 7), (90, 45),
                                     (300, 13), (250, 80)))
        search = SearchConfig(m_max=m_max, m_batch=m_batch, seed=rng.randrange(3),
                              ci_halfwidth=rng.choice((0.05, 0.05, 0.1, 0.2)))
        table = {search.trial_seed(i): rng.random() < p for i in range(m_max)}
        memo = {}
        if rng.random() < 0.5:  # the probe's trials
            qoc._run_trials(_TableRunner(table),
                            [(1.0, s) for s in search.trial_seeds(0, PROBE_TRIALS)], memo)
        runner, oracle = _TableRunner(table), _TableRunner(table)
        got = qoc.estimate_goodness(runner, 1.0, search, dict(memo))
        want = search_oracle.estimate_goodness(oracle, 1.0, search, dict(memo))
        assert (repr(got), runner.ran) == (repr(want), oracle.ran), case
        checks = [*range(m_batch, m_max, m_batch), m_max]
        seen["cut"] += _check_blocks(runner, table, search, checks,
                                     lambda good, m: ci_halfwidth(good / m, m)
                                     <= search.ci_halfwidth)
        seen["m_max"] += got.m_cap_exceeded
        seen["early stop"] += got.m < m_max
        seen["probe trials"] += bool(memo)
    assert min(seen.values()) >= 50 and len(seen) == 4, seen


def test_a_wave_sized_batch_peaks_under_16_kb_a_trial():
    """A curve search's largest call, WAVE_TRIALS trials over eight loop
    times on testbed-overhead-like, peaks at under 16 KB a trial of traced
    memory, its draws already kept as in a search (the parent of the waves
    peaked at 14.4 KB a trial on 128 trials at one loop time)."""
    exp = load_experiment("testbed-overhead-like")
    trials = [(1.0 + 0.1 * (i % 8), exp.search.trial_seed(i)) for i in range(WAVE_TRIALS)]
    runner = exp.runner()
    with shared_draws():
        runner.run_batch(trials)
        channels = [exp.channel.factory(seed) for _, seed in trials]
        tracemalloc.start()
        try:
            run_step_batch(exp.loop, ChannelRows(channels), [delta for delta, _ in trials])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 16 * 1024 * WAVE_TRIALS, peak / WAVE_TRIALS


def test_a_wave_sized_batch_at_the_sweep_bound_fits_in_2_gib():
    """MAX_SWEEP_LEN is stated from the peak traced memory a command costs
    a WAVE_TRIALS-trial search call (run and extraction) on an impaired
    channel with robot lag: measured at 400 commands, that peak times the
    bound stays under 2 GiB."""
    exp = load_experiment("testbed-overhead-like")
    runner = replace(exp.runner(), cfg=replace(exp.loop, sweep_len=400, robot_tau_ms=2.0))
    trials = [(1.0 + 0.1 * (i % 8), exp.search.trial_seed(i)) for i in range(WAVE_TRIALS)]
    tracemalloc.start()
    try:
        extract_metrics_batch(runner.run_batch(trials), runner.limits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 400 * MAX_SWEEP_LEN < 2 << 30, peak / 400
