"""Differential test of the curve search's waves against the search that
visits one grid point at a time.

`qoc.perf_curve` runs its trials in waves: one run_batch call holds the
block the current grid point's scan needs and, for a runner that
speculates, the next blocks of the following grid points.
`tests/search_oracle.py` keeps the search that ran each probe and estimate
block by block as it visited the point. Over random goodness tables, the
waves must return the oracle's `PerfCurve`, and each point's scan result
(`qoc._Waves.finish`: None for a rejection, else the estimate) must match
the oracle's probe and estimate calls. The waves must run every trial the
oracle runs and no (delta, seed) twice. A runner that does not speculate
makes exactly the oracle's calls.
"""

from collections import Counter
from random import Random

import numpy as np
import pytest

import search_oracle
from tcpsbench import cli, qoc
from tcpsbench.core import DEFAULT_LIMITS, GOOD, MALFORMED, NO_STEP, NOT_GOOD
from tcpsbench.loopsim import LoopConfig
from tcpsbench.netsim import Link, Topology, channel_from_topology
from tcpsbench.qoc import WAVE_POINTS, WAVE_TRIALS, SearchConfig, StepRunner, find_delta_opt
from tcpsbench.transport import ideal_model

_GRID = tuple(1.0 + 0.25 * i for i in range(16))


class _TableRunner:
    """Trials whose outcome comes from a table over (grid point, trial
    index); a batch is its rows' (outcome, rise time), which the search's
    extraction, replaced by _extract, reads back. A good trial's rise time
    grows with the loop time, so every curve is non-increasing in QoC. It
    records the trials of each call."""

    limits = DEFAULT_LIMITS

    def __init__(self, outcomes, search, speculates):
        self.outcomes, self.search, self._speculates = outcomes, search, speculates
        self.calls = []

    def run_batch(self, trials):
        self.calls.append(list(trials))
        rows = []
        for d, s in trials:
            i = (s - self.search.seed) // qoc._SEED_STRIDE - 1
            rows.append((self.outcomes[_GRID.index(d), i], 1.5 + d + 0.001 * (i % 7)))
        return np.array(rows)

    def speculates(self):
        return self._speculates


def _extract(batch, limits):
    outcome = batch[:, 0].astype(np.int8)
    return outcome, np.where(outcome == GOOD, batch[:, 1], np.nan)


def _case(i):
    """A search over a grid of 3 to 16 points whose goodness rises with the
    loop time or jumps about, with one to four targets, some of them out
    of the grid's reach; small m_max values hit the trial cap. A few trials
    are malformed."""
    rng = Random(i)
    points = rng.randint(3, len(_GRID))
    m_max, m_batch = rng.choice(((60, 20), (200, 20), (400, 20), (130, 7), (90, 45),
                                 (300, 13), (250, 80), (2000, 20)))
    search = SearchConfig(deltas=_GRID[:points], m_max=m_max, m_batch=m_batch,
                          seed=rng.randrange(5), ci_halfwidth=rng.choice((0.05, 0.05, 0.1)))
    p = [rng.choice((0.0, 0.3, 0.6, 0.85, 0.93, 0.97, 1.0)) for _ in range(points)]
    if rng.random() < 0.5:
        p.sort()
    if rng.random() < 0.3:  # no point comes near the higher targets
        p = [min(x, 0.6) for x in p]
    u = np.random.default_rng(i).random((points, m_max))
    outcomes = np.where(u < np.array(p)[:, None], GOOD,
                        np.where(u > 0.98, MALFORMED, np.where(u > 0.9, NO_STEP, NOT_GOOD)))
    if rng.random() < 0.25:  # one target, as find_delta_opt_bar asks
        specs = [rng.choice((0.5, 0.8, 0.9, 0.95, 1.0))]
    else:
        specs = sorted(rng.sample((0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0), rng.randint(2, 4)))
    return search, outcomes, specs


def _run_oracle(runner, specs, search, monkeypatch):
    """The oracle search's result and its probe and estimate calls, (delta,
    whether the probe rejects) and (delta, estimate)."""
    calls = []
    for name in ("_rejectable", "blocked_estimate"):
        inner = getattr(search_oracle, name)

        def recorded(r, delta, *args, inner=inner, **kwargs):
            out = inner(r, delta, *args, **kwargs)
            calls.append((delta, out))
            return out

        monkeypatch.setattr(search_oracle, name, recorded)
    monkeypatch.setattr(qoc, "extract_metrics_batch", _extract)
    try:
        return search_oracle.perf_curve(runner, specs, search), calls
    finally:
        monkeypatch.undo()


def _run_waves(runner, specs, search, monkeypatch):
    """The search's result and the results its waves return, each as the
    oracle's calls: a rejection is (delta, True), and an estimate is the
    probe that does not reject, (delta, False), then (delta, estimate)."""
    calls = []
    finish = qoc._Waves.finish

    def recorded(waves, idx, g_spec):
        est, delta = finish(waves, idx, g_spec), waves.grid[idx]
        calls.extend([(delta, True)] if est is None else [(delta, False), (delta, est)])
        return est

    monkeypatch.setattr(qoc._Waves, "finish", recorded)
    monkeypatch.setattr(qoc, "extract_metrics_batch", _extract)
    try:
        return qoc.perf_curve(runner, specs, search), calls
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("block", range(4))
def test_waves_match_one_point_at_a_time(block, monkeypatch):
    seen = Counter()
    for i in range(block * 75, (block + 1) * 75):
        search, outcomes, specs = _case(i)
        oracle = _TableRunner(outcomes, search, speculates=False)
        want, want_calls = _run_oracle(oracle, specs, search, monkeypatch)
        for speculates in (True, False):
            runner = _TableRunner(outcomes, search, speculates)
            got, got_calls = _run_waves(runner, specs, search, monkeypatch)
            assert repr(got) == repr(want), i
            # the same probes and estimates with the same results
            assert repr(got_calls) == repr(want_calls), i
            ran = [t for call in runner.calls for t in call]
            assert len(ran) == len(set(ran)), i
            if not speculates:
                assert runner.calls == oracle.calls, i
                continue
            oracle_ran = {t for call in oracle.calls for t in call}
            assert oracle_ran <= set(ran), i
            for call in runner.calls:
                deltas = {d for d, _ in call}
                assert len(deltas) <= WAVE_POINTS and len(call) <= WAVE_TRIALS, i
                seen["waves over 3+ loop times"] += len(deltas) >= 3
            seen["unused speculative trials"] += len(ran) > len(oracle_ran)
            seen["missing targets"] += bool(got.missing)
            seen["cap hits"] += any(p.m_cap_exceeded for p in got.points)
            seen["one target"] += len(specs) == 1
            seen["malformed trials"] += any(getattr(c[1], "malformed", 0) for c in got_calls)
    assert seen["waves over 3+ loop times"] >= 50, seen
    assert seen["unused speculative trials"] >= 50, seen
    assert min(seen.values()) >= 10 and len(seen) == 6, seen


def test_topology_searches_run_one_point_at_a_time(monkeypatch, tmp_path):
    """A topology trial costs about the same alone or in a batch, so a
    topology search does not speculate: `netsim` on usnet-nw under 16
    loaded pairs makes the run_batch calls of the one-point-at-a-time
    search, with the same loop times and sizes, 46 trials."""
    calls = []
    run_batch = StepRunner.run_batch

    def recorded(self, trials):
        calls.append((sorted({d for d, _ in trials}), len(trials)))
        return run_batch(self, trials)

    monkeypatch.setattr(StepRunner, "run_batch", recorded)
    argv = ["netsim", "--config", "usnet-nw", "--gspec", "0.9", "--rates", "500000",
            "--placements", "S0:S8", "--pairs", "16", "--flow-pkt-bytes", "64",
            "--out", str(tmp_path)]
    assert cli.run_command(argv) == 0
    assert calls == [([4.2], 4), ([4.2], 2), ([4.45], 4), ([4.45], 4), ([4.45], 12),
                     ([4.45], 20)]


def test_find_delta_opt_runs_trial_0_of_a_wave_of_points_per_call(monkeypatch):
    """find_delta_opt runs trial 0 of WAVE_POINTS grid points per call when
    its runner's trials run as array blocks, known up front for a channel
    model's build, and picks the same least good loop time; a topology
    channel runs one point a call."""
    calls = []
    run_batch = StepRunner.run_batch

    def recorded(self, trials):
        calls.append(list(trials))
        return run_batch(self, trials)

    monkeypatch.setattr(StepRunner, "run_batch", recorded)
    search = SearchConfig(delta_min_ms=0.1, delta_max_ms=2.0, delta_step_ms=0.1, seed=1)
    grid, seed = search.grid(), search.trial_seed(0)
    runner = StepRunner(cfg=LoopConfig(), channel_factory=ideal_model(0.5).build)
    assert find_delta_opt(runner, search) == grid[9] == pytest.approx(1.0)
    assert calls == [[(d, seed) for d in wave] for wave in (grid[:8], grid[8:16])]
    calls.clear()
    topo = Topology(switches=("s0", "s1"), links=(Link("s0", "s1", 0.25, 1e7),),
                    hosts={}, te_master="s0", te_slave="s1")
    runner = StepRunner(cfg=LoopConfig(),
                        channel_factory=lambda s: channel_from_topology(topo, (), s))
    assert find_delta_opt(runner, search) == grid[5]
    assert calls == [[(d, seed)] for d in grid[:6]]
