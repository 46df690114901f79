"""Loop-time searches, goodness statistics, QoC arithmetic, IAE and J."""

import math
from collections import Counter

import pytest

from tcpsbench import qoc
from tcpsbench.core import DEFAULT_LIMITS, StepResponseCurve, UnknownModality, extract_metrics
from tcpsbench.loopsim import LoopConfig, run_step_experiment
from tcpsbench.qoc import (
    NoGoodDelta,
    NonMonotoneCurve,
    NonPositiveRiseTime,
    PerfCurve,
    SearchConfig,
    StepRunner,
    ci_halfwidth,
    estimate_goodness,
    find_delta_opt,
    find_delta_opt_bar,
    iae,
    perf_curve,
    qoc_value,
    result_rows_csv,
    v_max,
)
from tcpsbench.transport import ChannelModel, Jitter, LinkParams, ideal_model


def runner_for(model: ChannelModel, cfg: LoopConfig | None = None) -> StepRunner:
    return StepRunner(cfg=cfg or LoopConfig(), channel_factory=model.build)


def _settled_span(curve: StepResponseCurve) -> StepResponseCurve:
    keep = (5 <= curve.x) & (curve.x < 45)
    return StepResponseCurve(t=curve.t[keep], x=curve.x[keep], y=curve.y[keep],
                             signal=curve.signal[keep], config=curve.config)


def drop_model(p: float) -> ChannelModel:
    return ChannelModel(forward=LinkParams(drop_prob=p), backward=LinkParams(drop_prob=p))


class TestQocArithmetic:
    def test_identity_at_ideal_rise_time(self):
        assert qoc_value(1.5) == 0.0

    def test_reference_rise_time(self):
        assert qoc_value(3.364) == pytest.approx(-0.3508, abs=1e-4)

    def test_decade(self):
        assert qoc_value(15.0) == pytest.approx(-1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveRiseTime):
            qoc_value(0.0)

    def test_strictly_decreasing_in_rise_time(self):
        values = [qoc_value(t) for t in (0.5, 1.0, 1.5, 2.0, 5.0, 50.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_v_max_values(self):
        assert v_max(0.0) == 1.0
        assert v_max(-0.35) == pytest.approx(0.4467, abs=1e-3)
        assert v_max(-0.92) == pytest.approx(0.1202, abs=1e-3)
        assert v_max(-1.7) == pytest.approx(0.01995, abs=1e-4)
        assert v_max(-2.99) == pytest.approx(0.001023, abs=1e-5)
        assert v_max(0.5) == 1.0  # clamped at the natural hand-speed limit

    def test_v_max_nondecreasing_and_capped(self):
        vals = [v_max(q) for q in (-3.0, -2.0, -1.0, -0.3, 0.0, 0.4)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert max(vals) == 1.0


class TestFindDeltaOpt:
    def test_ideal_channel_matches_rtt(self):
        runner = runner_for(ideal_model(0.5))
        search = SearchConfig(delta_min_ms=0.1, delta_max_ms=2.0, delta_step_ms=0.1, seed=1)
        assert find_delta_opt(runner, search) == pytest.approx(1.0, abs=1e-9)

    def test_reference_scan_three_candidates(self):
        # RTT 0.65 ms: only the grid value above the RTT yields a good curve
        runner = runner_for(ideal_model(0.325))
        search = SearchConfig(deltas=(0.1, 0.6, 0.7), seed=1)
        assert find_delta_opt(runner, search) == 0.7

    def test_dead_channel_exhausts_grid(self):
        runner = runner_for(drop_model(1.0))
        search = SearchConfig(delta_min_ms=0.5, delta_max_ms=1.5, delta_step_ms=0.5, seed=1)
        with pytest.raises(NoGoodDelta):
            find_delta_opt(runner, search)


class _RepeatedTimeRunner:
    """Ideal-channel trials whose second sample repeats the first one's time."""

    limits = DEFAULT_LIMITS

    def run_batch(self, trials):
        curves = runner_for(ideal_model(0.5)).run_batch(trials)
        curves.t[:, 1] = curves.t[:, 0]
        return curves


class TestEstimateGoodness:
    def test_malformed_curves_are_not_good_and_counted(self):
        est = estimate_goodness(_RepeatedTimeRunner(), 1.0, SearchConfig(seed=1, m_batch=20))
        assert est.g == 0.0 and est.m == 20
        assert est.malformed == est.m

    def test_other_extraction_errors_propagate(self, monkeypatch):
        def broken(curve, limits):
            raise UnknownModality("not a curve error")

        monkeypatch.setattr(qoc, "extract_metrics_batch", broken)
        with pytest.raises(UnknownModality):
            estimate_goodness(runner_for(ideal_model(0.5)), 1.0, SearchConfig(seed=1))

    def test_deterministic_good_stops_at_first_batch(self):
        runner = runner_for(ideal_model(0.5))
        est = estimate_goodness(runner, 1.0, SearchConfig(seed=1, m_batch=20))
        assert est.g == 1.0 and est.m == 20 and not est.m_cap_exceeded

    def test_always_bad_is_zero(self):
        runner = runner_for(drop_model(1.0))
        est = estimate_goodness(runner, 1.0, SearchConfig(seed=1))
        assert est.g == 0.0 and not est.good_rise_times

    def test_ci_rule_forces_m_of_139_or_more_near_ninety_percent(self):
        # with goodness near 0.9 the 95% half-width <= 0.05 rule needs
        # ceil(1.96^2 * 0.09 / 0.05^2) = 139 trials at least
        assert math.ceil(1.96 ** 2 * 0.9 * 0.1 / 0.05 ** 2) == 139
        runner = runner_for(drop_model(0.07))
        est = estimate_goodness(runner, 1.0, SearchConfig(seed=5, m_max=800))
        assert 0.7 <= est.g <= 0.95
        assert est.m >= 139
        assert est.ci <= 0.05

    def test_every_return_obeys_ci_rule_or_reports_cap(self):
        search = SearchConfig(seed=3, m_max=60)
        for p in (0.0, 0.05, 0.1, 0.3):
            est = estimate_goodness(runner_for(drop_model(p)), 1.0, search)
            assert est.ci <= 0.05 or est.m_cap_exceeded
            if est.m_cap_exceeded:
                assert est.m == 60

    def test_shared_trial_seeds_across_deltas(self):
        # estimates at two loop times share per-trial channel seeds
        search = SearchConfig(seed=7)
        r = runner_for(ideal_model(0.5))
        a = estimate_goodness(r, 1.0, search)
        b = estimate_goodness(r, 1.2, search)
        assert a.m == b.m == search.m_batch


class TestFindDeltaOptBar:
    def test_ideal_equals_single_run_optimum(self):
        runner = runner_for(ideal_model(0.5))
        search = SearchConfig(delta_min_ms=0.1, delta_max_ms=2.0, delta_step_ms=0.1, seed=1)
        res = find_delta_opt_bar(runner, 1.0, search)
        assert res.delta_opt_bar_ms == find_delta_opt(runner, search)
        assert res.t_r_mean_ms == pytest.approx(1.625, abs=1e-9)
        assert res.qoc == pytest.approx(math.log10(1.5 / 1.625), abs=1e-9)
        assert res.g_achieved == 1.0

    def test_rejects_delta_below_target_goodness(self):
        # a grid point whose goodness sits near 0.8 is rejected for 0.9
        runner = runner_for(drop_model(0.1))
        search = SearchConfig(deltas=(1.0,), seed=5, m_max=600)
        est = estimate_goodness(runner, 1.0, search)
        assert est.g < 0.9
        with pytest.raises(NoGoodDelta):
            find_delta_opt_bar(runner, 0.9, search)
        res = find_delta_opt_bar(runner, est.g - 0.1, search)
        assert res.delta_opt_bar_ms == 1.0

    def test_invariant_g_achieved_at_least_g_spec(self):
        runner = runner_for(drop_model(0.05))
        search = SearchConfig(delta_min_ms=1.0, delta_max_ms=1.4, delta_step_ms=0.2,
                              seed=11, m_max=600, m_batch=80)
        res = find_delta_opt_bar(runner, 0.8, search)
        assert res.g_achieved >= 0.8
        assert res.v_max_mps == v_max(res.qoc)

    def test_gspec_validation(self):
        runner = runner_for(ideal_model())
        with pytest.raises(ValueError):
            find_delta_opt_bar(runner, 0.0, SearchConfig())
        with pytest.raises(ValueError):
            find_delta_opt_bar(runner, 1.2, SearchConfig())


class TestPerfCurve:
    def test_flat_on_deterministic_channel(self):
        runner = runner_for(ideal_model(0.5))
        search = SearchConfig(delta_min_ms=0.5, delta_max_ms=1.5, delta_step_ms=0.5, seed=1)
        pc = perf_curve(runner, [0.5, 0.9, 1.0], search)
        qocs = {round(p.qoc, 12) for p in pc.points}
        assert len(qocs) == 1 and not pc.missing

    def test_lossy_channel_curve_nonincreasing_and_deltas_monotone(self):
        model = ChannelModel(
            forward=LinkParams(drop_prob=0.02, jitter=Jitter.truncnorm(0.2, 0.4)),
            backward=LinkParams(drop_prob=0.02, jitter=Jitter.truncnorm(0.2, 0.4)))
        runner = runner_for(model)
        search = SearchConfig(delta_min_ms=1.0, delta_max_ms=4.0, delta_step_ms=0.25,
                              seed=3, m_max=400)
        pc = perf_curve(runner, [0.5, 0.7, 0.9], search)
        deltas = [p.delta_opt_bar_ms for p in pc.points]
        qocs = [p.qoc for p in pc.points]
        assert all(b >= a for a, b in zip(deltas, deltas[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(qocs, qocs[1:]))

    def test_unreachable_target_recorded_missing(self):
        # persistent drops cap the achievable goodness below 0.99
        runner = runner_for(drop_model(0.05))
        search = SearchConfig(delta_min_ms=1.0, delta_max_ms=2.0, delta_step_ms=0.5,
                              seed=5, m_max=300, m_batch=60)
        pc = perf_curve(runner, [0.5, 0.99], search)
        assert [p.g_spec for p in pc.points] == [0.5]
        assert pc.missing == [0.99]

    def test_constructor_asserts_nonincreasing(self):
        runner = runner_for(ideal_model(0.5))
        res_fast = find_delta_opt_bar(runner, 1.0, SearchConfig(deltas=(1.0,), seed=1))
        res_slow = find_delta_opt_bar(runner, 1.0, SearchConfig(deltas=(2.0,), seed=1))
        from dataclasses import replace
        bad = [replace(res_slow, g_spec=0.5), replace(res_fast, g_spec=0.9)]
        with pytest.raises(NonMonotoneCurve):
            PerfCurve(points=bad)

    def test_csv_rows(self):
        runner = runner_for(ideal_model(0.5))
        res = find_delta_opt_bar(runner, 1.0, SearchConfig(deltas=(1.0,), seed=1))
        text = result_rows_csv([res])
        header, row = text.strip().splitlines()
        assert header == "g_spec,delta_opt_ms,t_r_ms,qoc,v_max"
        assert row.startswith("1.0,1.0,1.625,")


class _CountingRunner:
    """Counts the trials each (delta, seed) pair runs."""

    limits = DEFAULT_LIMITS

    def __init__(self, runner):
        self.runner = runner
        self.runs = Counter()

    def run_batch(self, trials):
        self.runs.update(trials)
        return self.runner.run_batch(trials)

    def speculates(self):
        return self.runner.speculates()


def test_perf_curve_runs_each_trial_once():
    # the probe's 8 trials at an accepted point are also the estimate's first 8
    runner = _CountingRunner(runner_for(drop_model(0.05)))
    search = SearchConfig(delta_min_ms=1.0, delta_max_ms=2.0, delta_step_ms=0.5,
                          seed=5, m_max=300, m_batch=60)
    pc = perf_curve(runner, [0.5, 0.99], search)
    assert pc.missing == [0.99]
    assert max(runner.runs.values()) == 1
    probed = {search.trial_seed(i) for i in range(8)}
    assert all(probed <= {seed for d, seed in runner.runs if d == delta} for delta in search.grid())


class TestLatencyMonotonicity:
    def test_higher_latency_never_raises_qoc(self):
        qocs = []
        for latency in (0.5, 2.0, 8.0):
            runner = runner_for(ideal_model(latency))
            rtt = 2 * latency
            search = SearchConfig(delta_min_ms=rtt, delta_max_ms=rtt + 2.0,
                                  delta_step_ms=0.25, seed=1)
            qocs.append(find_delta_opt_bar(runner, 0.9, search).qoc)
        assert qocs[0] > qocs[1] > qocs[2]


class TestComparisonIntegrals:
    def _ideal_record(self):
        cfg = LoopConfig()
        return cfg, run_step_experiment(cfg, ideal_model(0.5).build(1))

    def test_iae_geometric_sum(self):
        # held errors 20 * 0.2^l for one loop each sum to 20 / (1 - 0.2) = 25
        cfg, rec = self._ideal_record()
        m = extract_metrics(rec.curve)
        assert iae(rec.curve, m.t0) == pytest.approx(25.0, abs=1e-6)

    def test_iae_zero_error_curve(self):
        cfg, rec = self._ideal_record()
        curve = _settled_span(rec.curve)
        assert iae(curve, curve.t[0]) == pytest.approx(0.0, abs=1e-9)

    def test_iae_counts_overshoot_as_error(self):
        # errors 0, 20, -20, 0 one ms apart: the trapezoids of |error| are 10 + 20 + 10
        curve = StepResponseCurve(t=[0.0, 1.0, 2.0, 3.0], x=[0, 1, 2, 3], y=[0, 0, 0, 0],
                                  signal=[100.0, 80.0, 120.0, 100.0], config=LoopConfig())
        assert iae(curve, 1.0) == 40.0

    def test_iae_never_feeds_delta_selection(self):
        # the searches return before any comparison integral is evaluated;
        # the result object carries no IAE / J fields
        runner = runner_for(ideal_model(0.5))
        res = find_delta_opt_bar(runner, 1.0, SearchConfig(deltas=(1.0,), seed=1))
        assert not hasattr(res, "iae") and not hasattr(res, "quad_cost")


class TestSearchConfig:
    def test_grid_generation(self):
        sc = SearchConfig(delta_min_ms=0.1, delta_max_ms=0.5, delta_step_ms=0.2)
        assert sc.grid() == pytest.approx([0.1, 0.3, 0.5])

    def test_explicit_deltas_sorted(self):
        assert SearchConfig(deltas=(0.7, 0.1, 0.6)).grid() == [0.1, 0.6, 0.7]

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(ci_halfwidth=0.0)
        with pytest.raises(ValueError):
            SearchConfig(delta_min_ms=-1.0)
        with pytest.raises(ValueError):
            SearchConfig(m_batch=0)

    def test_ci_halfwidth_formula(self):
        assert ci_halfwidth(0.9, 139) == pytest.approx(1.96 * math.sqrt(0.09 / 139))
        assert ci_halfwidth(1.0, 20) == 0.0


def test_curve_replays_compute_no_block_end(monkeypatch):
    """perf_curve's probe and estimate calls at each visited grid point read
    trials that the waves ran before them: every span they read is whole in
    the memo, so they compute no block end (_block_end), while the waves
    do, and the curve is the same."""
    from tcpsbench.experiments import load_experiment

    exp = load_experiment("testbed-overhead-like")
    specs = [0.5, 0.7, 0.9, 0.95]
    want = perf_curve(exp.runner(), specs, exp.search)
    calls, phase = Counter(), ["wave"]
    block_end = qoc._block_end

    def counted(*args):
        calls[phase[0]] += 1
        return block_end(*args)

    def replayed(fn):
        def replay(*args, **kwargs):
            phase[0] = "replay"
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = "wave"
        return replay

    monkeypatch.setattr(qoc, "_block_end", counted)
    for name in ("_rejectable", "estimate_goodness"):
        monkeypatch.setattr(qoc, name, replayed(getattr(qoc, name)))
    got = perf_curve(exp.runner(), specs, exp.search)
    assert repr(got) == repr(want)
    assert calls["replay"] == 0 and calls["wave"] > 0, calls


def test_scan_reads_the_memo_as_the_block_by_block_scan_did():
    """_scan reads the spans the memo holds whole without computing a block
    end; where a span lacks a trial it must yield the block the scan that
    computed every block end (search_oracle.scan) yields, and return the
    same outcomes. Memos hold a known prefix of random length (a block that
    ended early, as after a probe or under an earlier target) and scattered
    trials after it; stop rules are the estimate's and the probe's."""
    import random

    import search_oracle

    def drive(scan, memo, table):
        blocks = []
        try:
            block = next(scan)
            while True:
                blocks.append(block)
                memo.update((t, table[t]) for t in block)
                block = next(scan)
        except StopIteration as done:
            return blocks, done.value

    rng = random.Random(22)
    seen = Counter()
    for case in range(400):
        search = SearchConfig(seed=rng.randrange(100), ci_halfwidth=rng.choice((0.05, 0.1, 0.2)))
        if rng.random() < 0.3:
            step, last, g_spec = 1, qoc.PROBE_TRIALS, rng.choice((0.5, 0.9, 0.95))

            def stop(good, done, g_spec=g_spec):
                best = (good + qoc.PROBE_TRIALS - done) / qoc.PROBE_TRIALS
                return best + ci_halfwidth(best, qoc.PROBE_TRIALS) < g_spec
        else:
            step, last = rng.choice((5, 20, 20, 60)), rng.choice((60, 200, 1000))

            def stop(good, done, hw=search.ci_halfwidth):
                return ci_halfwidth(good / done, done) <= hw
        g = rng.choice((0.5, 0.7, 0.9, 1.0))
        table = {(1.0, s): ((1.0 if rng.random() < g else None), False)
                 for s in search.trial_seeds(0, last)}
        known = list(table)[:rng.randrange(last)]
        known += rng.sample(list(table), rng.randrange(min(last, 30)))
        memo = {t: table[t] for t in known}
        mine, theirs = dict(memo), dict(memo)
        got = drive(qoc._scan(1.0, search, step, last, stop, mine), mine, table)
        want = drive(search_oracle.scan(1.0, search, step, last, stop, theirs), theirs, table)
        assert repr(got) == repr(want), case
        first = (1.0, search.trial_seed(0))
        seen["prefix then a block"] += bool(want[0]) and want[0][0][0] != first
        seen["long block after a prefix"] += bool(known) and any(len(b) >= 20 for b in want[0][:1])
    assert seen["prefix then a block"] >= 100 and seen["long block after a prefix"] >= 50, seen
