"""Step-response metric extraction and the shared lookup utilities."""

from dataclasses import replace
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import extract_oracle
from tcpsbench.core import (
    GOOD,
    NOT_GOOD,
    CurveBatch,
    CurveMetrics,
    GoodnessLimits,
    MalformedCurve,
    NoStepDetected,
    NonPositiveInput,
    StepResponseCurve,
    UnknownModality,
    classify_good,
    critical_loops,
    extract_metrics,
    extract_metrics_batch,
    max_rtt_kvl,
    read_curve_csv,
    rtt_budget,
    write_curve_csv,
)
from tcpsbench.loopsim import LoopConfig, oracle_trace


def curve_from_signals(signals, t0=0.5, dt=1.0, cfg=None, ys=None):
    cfg = cfg or LoopConfig()
    ys = ys if ys is not None else [0.0] * len(signals)
    return StepResponseCurve.from_rows(
        [(t0 + i * dt, float(i), float(ys[i]), float(s)) for i, s in enumerate(signals)], cfg)


def ideal_curve(cfg=None):
    cfg = cfg or LoopConfig()
    trace = oracle_trace(cfg)
    return curve_from_signals([sig for (_, _, sig) in trace], cfg=cfg,
                              ys=[y for (_, y, _) in trace])


class TestExtractMetrics:
    def test_ideal_curve(self):
        m = extract_metrics(ideal_curve())
        assert m.t_r == pytest.approx(1.625, abs=1e-12)
        assert m.overshoot_pct == 0.0
        assert m.steady_state_error_pct == pytest.approx(0.0, abs=1e-9)
        assert m.is_good
        assert m.t0 <= m.t1 <= m.t2

    def test_flat_curve_never_steps(self):
        with pytest.raises(NoStepDetected):
            extract_metrics(curve_from_signals([100.0] * 40))

    def test_overshoot_from_peak_105(self):
        # (105 - 100) / 20 * 100 = 25, hand arithmetic
        sig = [100.0] * 5 + [80.0, 105.0, 99.0, 100.0, 100.0, 100.0, 100.0]
        m = extract_metrics(curve_from_signals(sig))
        assert m.overshoot_pct == pytest.approx(25.0)
        assert not m.is_good

    def test_no_rise_reported_not_good(self):
        sig = [100.0] * 5 + [80.0] * 20
        m = extract_metrics(curve_from_signals(sig))
        assert m.t2 is None and m.t_r is None
        assert not m.is_good
        assert not classify_good(m)

    def test_malformed_too_few_samples(self):
        with pytest.raises(MalformedCurve):
            extract_metrics(curve_from_signals([100.0]))

    def test_malformed_non_monotone_time(self):
        cfg = LoopConfig()
        curve = StepResponseCurve(t=[1.0, 0.5], x=[0, 1], y=[0, 0], signal=[100.0, 100.0],
                                  config=cfg)
        with pytest.raises(MalformedCurve):
            extract_metrics(curve)

    def test_nonhaptic_band_reuse(self):
        cfg = LoopConfig(setting="non-haptic")
        m = extract_metrics(ideal_curve(cfg))
        assert m.is_good
        assert m.t_r == pytest.approx(1.625, abs=1e-12)

    def test_undershoot_and_settling_reported_but_not_gated(self):
        sig = [100.0] * 5 + [80.0, 75.0, 96.0, 99.2, 99.8, 100.0, 100.0, 100.0]
        m = extract_metrics(curve_from_signals(sig))
        assert m.undershoot_pct == pytest.approx(25.0)  # (80 - 75) / 20
        assert m.settling_ms is not None
        assert m.is_good  # neither gates the verdict

    def test_time_shift_invariance(self):
        base = ideal_curve()
        m0 = extract_metrics(base)
        shifted = replace(base, t=base.t + 7.25)
        m1 = extract_metrics(shifted)
        assert m1.t_r == pytest.approx(m0.t_r, abs=1e-12)
        assert m1.t0 == pytest.approx(m0.t0 + 7.25, abs=1e-12)
        assert m1.overshoot_pct == m0.overshoot_pct
        assert m1.steady_state_error_pct == pytest.approx(m0.steady_state_error_pct, abs=1e-12)

    def test_settling_matches_brute_force_definition(self):
        # settling time: from t0 to the first sample at or after the step
        # from which every later sample stays within 2% of the span
        rng = Random(11)
        settled = unsettled = 0
        for _ in range(400):
            n = rng.randint(8, 60)
            step = rng.randint(1, n // 2)
            noise = rng.choice((0.0, 0.2, 0.5, 1.0)) * rng.random()
            root = rng.uniform(-0.9, 0.9)
            sig = [100.0] * step + [100.0 - 20.0 * root ** j + rng.uniform(-noise, noise)
                                    for j in range(n - step)]
            m = extract_metrics(curve_from_signals(sig))
            if m.t2 is None:
                continue
            step_idx = round(m.t0 - 0.5)
            expected = None
            for i in range(step_idx, n):
                if all(abs(s - 100.0) <= 0.02 * 20.0 for s in sig[i:]):
                    expected = float(i) - step_idx
                    break
            assert m.settling_ms == expected
            if expected is None:
                unsettled += 1
            else:
                settled += 1
        assert settled > 50 and unsettled > 50

    @given(shift=st.floats(min_value=0.0, max_value=1e4, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_time_shift_invariance_property(self, shift):
        base = ideal_curve()
        shifted = replace(base, t=base.t + shift)
        m0, m1 = extract_metrics(base), extract_metrics(shifted)
        assert m1.t_r == pytest.approx(m0.t_r, abs=1e-6)
        assert m1.is_good == m0.is_good


class TestClassifyGood:
    def _metrics(self, overshoot, sse, t2=60.0):
        return CurveMetrics(t0=50.0, t1=51.0, t2=t2, t_r=(t2 - 50.0) if t2 else None,
                            overshoot_pct=overshoot, steady_state_error_pct=sse,
                            delta_y=None, is_good=False)

    def test_boundary_inside(self):
        assert classify_good(self._metrics(19.9, 9.9))

    def test_overshoot_outside(self):
        assert not classify_good(self._metrics(20.1, 5.0))

    def test_sse_outside(self):
        assert not classify_good(self._metrics(5.0, 10.1))

    def test_no_rise_is_bad(self):
        m = CurveMetrics(t0=50.0, t1=None, t2=None, t_r=None, overshoot_pct=0.0,
                         steady_state_error_pct=None, delta_y=None, is_good=False)
        assert not classify_good(m)

    @given(
        ov=st.floats(0, 60, allow_nan=False),
        sse=st.floats(0, 30, allow_nan=False),
        lim_ov=st.floats(1, 50, allow_nan=False),
        lim_sse=st.floats(1, 20, allow_nan=False),
        tighter_ov=st.floats(0.1, 1.0),
        tighter_sse=st.floats(0.1, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_tightening_limits_is_monotone(self, ov, sse, lim_ov, lim_sse,
                                           tighter_ov, tighter_sse):
        m = self._metrics(ov, sse)
        loose = GoodnessLimits(overshoot_max_pct=lim_ov, sse_max_pct=lim_sse)
        tight = GoodnessLimits(overshoot_max_pct=lim_ov * tighter_ov,
                               sse_max_pct=lim_sse * tighter_sse)
        if not classify_good(m, loose):
            assert not classify_good(m, tight)


def test_limits_are_inclusive_in_every_verdict():
    """A curve whose overshoot and steady-state error equal their limits is
    good, and not good with either limit one ulp lower: in extract_metrics,
    extract_metrics_batch, classify_good and the oracle's own verdict."""
    rng = Random(3)
    for _ in range(30):
        root = rng.uniform(-0.9, -0.1)  # a negative root overshoots
        sig = [100.0] * 4 + [100.0 - 20.0 * root ** j + rng.uniform(-0.5, 0.5) for j in range(40)]
        curve = curve_from_signals(sig)
        m = extract_oracle.extract_metrics(curve)
        exact = GoodnessLimits(overshoot_max_pct=m.overshoot_pct,
                               sse_max_pct=m.steady_state_error_pct)
        for limits, good in [
            (exact, True),
            (replace(exact, overshoot_max_pct=float(np.nextafter(m.overshoot_pct, 0.0))), False),
            (replace(exact, sse_max_pct=float(np.nextafter(m.steady_state_error_pct, 0.0))), False),
        ]:
            assert extract_oracle.extract_metrics(curve, limits).is_good is good
            assert extract_metrics(curve, limits).is_good is good
            assert classify_good(m, limits) is good
            outcome, _ = extract_metrics_batch(CurveBatch.from_curves([curve]), limits)
            assert outcome.tolist() == [GOOD if good else NOT_GOOD]


class TestLookups:
    def test_rtt_budgets(self):
        assert rtt_budget("video").max_rtt_ms == 1.0
        assert rtt_budget("audio").max_rtt_ms == 46.0
        assert rtt_budget("haptic").max_rtt_ms == 126.0

    def test_unknown_modality(self):
        with pytest.raises(UnknownModality):
            rtt_budget("smell")

    def test_max_rtt_kvl(self):
        assert max_rtt_kvl(1.0, 1.0) == pytest.approx(1.0)
        assert max_rtt_kvl(0.5, 1.0) == pytest.approx(2.0)
        assert max_rtt_kvl(1.0, 0.5) == pytest.approx(2.0)

    def test_max_rtt_kvl_rejects_nonpositive(self):
        with pytest.raises(NonPositiveInput):
            max_rtt_kvl(0.0, 1.0)
        with pytest.raises(NonPositiveInput):
            max_rtt_kvl(1.0, -0.2)

    def test_critical_loops_cases(self):
        assert critical_loops("high", "high") == {"kvl", "khl"}
        assert critical_loops("high", "low") == {"kvl"}
        assert critical_loops("medium", "high") == {"khl"}

    def test_critical_loops_default(self):
        assert critical_loops("low", "low") == {"kvl"}
        assert critical_loops("medium", "low") == {"kvl"}


class TestCurveCsv:
    def test_roundtrip(self, tmp_path):
        curve = ideal_curve()
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, str(path))
        back = read_curve_csv(str(path), curve.config)
        for name in ("t", "x", "y", "signal"):
            assert getattr(back, name).tolist() == getattr(curve, name).tolist()
        assert path.read_text().splitlines()[0] == "t_ms,x,y,signal"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,pos\n1,2\n")
        with pytest.raises(MalformedCurve):
            read_curve_csv(str(path), LoopConfig())
