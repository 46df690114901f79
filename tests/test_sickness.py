"""Cybersickness exposure: prediction, synthesis, and replay measurement."""

import math

import numpy as np
import pytest

from tcpsbench import sickness
from tcpsbench.experiments import load_experiment
from tcpsbench.loopsim import NegativeTau
from tcpsbench.sickness import (
    RANGE_MM,
    HandTrajectory,
    TooShort,
    _histogram,
    compliant_trajectory,
    histogram_csv,
    measure_E,
    predict_E,
    read_trajectory_csv,
    write_trajectory_csv,
)
from tcpsbench.transport import ChannelModel, LinkParams, ideal_model


def constant_speed(speed_mps: float, n_steps: int = 150, fs_hz: float = 30.0) -> HandTrajectory:
    """A hand moving one way at a constant speed."""
    return HandTrajectory(fs_hz, np.arange(n_steps + 1) * (speed_mps * 1000.0 / fs_hz))


class TestPredict:
    def test_exact_constructed_fractions(self):
        for frac in (0.77, 0.82, 0.88):
            traj = compliant_trajectory(30.0, 3000, v_max_mps=0.02, fraction=frac, seed=3)
            assert predict_E(traj, 0.02) == frac * 100

    def test_all_below(self):
        traj = constant_speed(0.01, 300)
        assert predict_E(traj, 0.02) == 100.0

    def test_constant_speed_twice_ceiling(self):
        traj = constant_speed(0.04, 300)
        assert predict_E(traj, 0.02) == 0.0

    def test_too_short(self):
        with pytest.raises(TooShort):
            HandTrajectory(fs_hz=30.0, positions=np.array([1.0]))


class TestSynth:
    def test_deterministic_per_seed(self):
        a = compliant_trajectory(30.0, 150, 0.02, 0.5, seed=4)
        b = compliant_trajectory(30.0, 150, 0.02, 0.5, seed=4)
        assert np.array_equal(a.positions, b.positions)
        c = compliant_trajectory(30.0, 150, 0.02, 0.5, seed=5)
        assert not np.array_equal(a.positions, c.positions)

    def test_positions_stay_in_range(self):
        # 1800 steps of 12 to 17 mm in the fast blocks walk far past the walls unless reflected
        traj = compliant_trajectory(30.0, 1800, 0.2, 0.5, seed=6)
        assert 200.0 < np.max(np.abs(traj.positions)) <= RANGE_MM

    def test_compliant_speeds_keep_margin(self):
        traj = compliant_trajectory(30.0, 1200, 0.02, 0.5, seed=7)
        v = np.abs(traj.velocities_mps())
        below = v[v < 0.02]
        above = v[v >= 0.02]
        assert np.max(below) <= 0.7 * 0.02 + 1e-12
        assert np.min(above) >= 1.6 * 0.02 - 1e-12


class TestPositionAt:
    def test_matches_np_interp_bit_for_bit(self):
        traj = compliant_trajectory(30.0, 500, v_max_mps=0.02, fraction=0.8, seed=5)
        n = len(traj.positions)
        end_ms = (n - 1) / traj.fs_hz * 1000.0
        rng = np.random.default_rng(0)
        times = np.concatenate([
            rng.uniform(-200.0, end_ms + 200.0, 20_000),  # before 0 and past the end
            np.arange(-3, n + 3) / traj.fs_hz * 1000.0,   # on and around the samples
            [0.0, -0.0, end_ms],
        ])
        xp = np.arange(n)
        for t in times:
            want = float(np.interp(t / 1000.0 * traj.fs_hz, xp, traj.positions))
            assert traj.position_at(float(t)) == want, t

    def test_clamps_outside_the_trajectory(self):
        traj = HandTrajectory(fs_hz=1000.0, positions=np.array([2.0, 4.0, 8.0]))
        assert traj.position_at(-5.0) == 2.0
        assert traj.position_at(0.5) == 3.0
        assert traj.position_at(1.25) == 5.0
        assert traj.position_at(2.0) == 8.0
        assert traj.position_at(9.0) == 8.0


class TestMeasure:
    def test_static_hand_ideal_channel_full_exposure(self):
        traj = HandTrajectory(fs_hz=30.0, positions=np.zeros(120))
        report = measure_E(traj, ideal_model(0.5).build(1), v_max_mps=0.02)
        assert report.measured_e_pct == 100.0
        assert report.n_samples > 100

    def test_stale_feedback_fast_hand_near_zero(self):
        # RTT far beyond the sampling period with fast monotone motion: the
        # fed-back position is hundreds of millimetres stale
        model = ChannelModel(forward=LinkParams(latency_ms=400.0),
                             backward=LinkParams(latency_ms=400.0))
        step_mm = 0.5 * 1000.0 / 30.0  # 0.5 m/s at 30 Hz
        traj = HandTrajectory(fs_hz=30.0, positions=np.arange(120) * step_mm)
        report = measure_E(traj, model.build(1))
        # the tail feedback arriving after the hand stops may match; everything
        # mid-motion is hundreds of millimetres off
        assert report.measured_e_pct <= 2.0

    def test_slow_motion_converges_to_full_exposure(self):
        values = []
        for speed in (0.2, 0.05, 0.001):
            traj = constant_speed(speed)
            report = measure_E(traj, ideal_model(0.5).build(2))
            values.append(report.measured_e_pct)
        assert values[-1] == 100.0
        assert values[0] <= values[1] <= values[2]

    def test_histogram_mass_sums_to_100(self):
        traj = compliant_trajectory(30.0, 180, v_max_mps=0.1, fraction=0.5, seed=4)
        report = measure_E(traj, ideal_model(0.5).build(3))
        total = sum(pct for (_, pct) in report.error_histogram)
        assert total == pytest.approx(100.0, abs=1e-9)
        csv_text = histogram_csv(report)
        assert csv_text.splitlines()[0] == "bin_left_mm,share_pct"

    def test_histogram_keeps_errors_beyond_the_float_edges(self):
        # the last edge, lo + k * 0.1 in floats, falls just below 0.1 and 2.1
        for errors in ([-5.9, 0.1], [-6.0, 2.1]):
            hist = _histogram(np.array(errors))
            assert sum(pct for _, pct in hist) == 100.0
            assert hist[0][1] == hist[-1][1] == 50.0

    def test_robot_lag_reduces_exposure_for_fast_motion(self):
        traj = constant_speed(0.08)
        fast = measure_E(traj, ideal_model(0.5).build(4), robot_tau_ms=0.0)
        lagged = measure_E(traj, ideal_model(0.5).build(4), robot_tau_ms=120.0)
        assert lagged.measured_e_pct <= fast.measured_e_pct

    def test_lagged_positions_match_the_per_sample_loop(self, monkeypatch):
        """measure_E computes one lag factor per distinct time step and runs
        the recurrence over buffers; on a 12 001-sample vrep-like replay
        (tau 50 ms, a few distinct steps) its lagged positions must equal,
        bit for bit, those of the loop it replaced: one math.exp per
        sample, on lists of Python floats. The factors are computed for the
        distinct steps only."""
        exp = load_experiment("vrep-like")
        traj = compliant_trajectory(20.0, 12_000, v_max_mps=0.02, fraction=0.8, seed=0)
        calls, factored = [], []
        lagged, lag_factors = sickness._lagged, sickness._lag_factors

        def recorded(y0, cmds, t, tau_ms):
            calls.append((y0, cmds.copy(), t.copy(), tau_ms, lagged(y0, cmds, t, tau_ms)))
            return calls[-1][-1]

        def counted(dt, tau_ms):
            factored.append(len(dt))
            return lag_factors(dt, tau_ms)

        monkeypatch.setattr(sickness, "_lagged", recorded)
        monkeypatch.setattr(sickness, "_lag_factors", counted)
        measure_E(traj, exp.channel.factory(exp.loop.seed), robot_tau_ms=exp.loop.robot_tau_ms,
                  v_max_mps=0.02, packet_size_b=exp.loop.packet_size_b)
        ((y0, cmds, t, tau_ms, got),) = calls
        assert y0 == traj.positions[0] and tau_ms == 50.0
        dt = np.diff(t, prepend=0.0)
        y, want = y0, []
        for cmd, step in zip(cmds.tolist(), dt.tolist()):
            y = y + (cmd - y) * (1.0 - math.exp(-step / tau_ms))
            want.append(y)
        assert got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes()
        assert factored == [len(np.unique(dt))] and factored[0] < 20 and len(got) > 11_000

    def test_loop_numbers_that_a_loop_config_refuses(self):
        """A negative or non-finite lag time constant and a packet size that
        is not an int of at least 1 are refused, as LoopConfig refuses them
        (a negative or NaN tau ran as tau = 0; a negative size ran with a
        negative serialization time)."""
        traj = compliant_trajectory(30.0, 400, v_max_mps=0.02, fraction=0.85, seed=2)
        channel = ChannelModel(forward=LinkParams(latency_ms=5.0, bandwidth_bps=64000.0),
                               backward=LinkParams(latency_ms=5.0)).build(1)
        with pytest.raises(NegativeTau):
            measure_E(traj, channel, robot_tau_ms=-5.0)
        for tau in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tau_ms"):
                measure_E(traj, channel, robot_tau_ms=tau)
        for size in (0, -5, 32.5, True):
            with pytest.raises(ValueError, match="packet_size_b"):
                measure_E(traj, channel, packet_size_b=size)
        assert measure_E(traj, channel, robot_tau_ms=5.0, packet_size_b=1).n_samples > 0


class TestTrajectoryCsv:
    def test_roundtrip_with_time_column(self, tmp_path):
        traj = compliant_trajectory(40.0, 80, v_max_mps=0.1, fraction=0.5, seed=8)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, str(path))
        back = read_trajectory_csv(str(path))
        assert back.fs_hz == traj.fs_hz
        assert np.allclose(back.positions, traj.positions)

    def test_bare_positions_with_explicit_rate(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("pos_mm\n0.0\n1.0\n2.5\n")
        traj = read_trajectory_csv(str(path), fs_hz=20.0)
        assert traj.fs_hz == 20.0
        assert list(traj.positions) == [0.0, 1.0, 2.5]

    def test_rate_derived_from_time_column(self, tmp_path):
        path = tmp_path / "timed.csv"
        path.write_text("t_s,pos_mm\n0.0,0.0\n0.05,1.0\n0.1,2.0\n")
        traj = read_trajectory_csv(str(path))
        assert traj.fs_hz == pytest.approx(20.0)

    def test_comments_blank_lines_and_mixed_rows(self, tmp_path):
        """Comments and blank lines anywhere, the first rate header, bare
        and timed rows in one file, fields past the second ignored."""
        path = tmp_path / "mixed.csv"
        path.write_text("# recorded by hand\n\n# fs_hz: 12.5\n# fs_hz: 99.0\npos_mm\n1.5\n"
                        "  2.5,-3.0,note\n\n# aside\n0.25,4.0\n")
        traj = read_trajectory_csv(str(path))
        assert traj.fs_hz == 12.5
        assert traj.positions.tolist() == [1.5, -3.0, 4.0]
        assert read_trajectory_csv(str(path), fs_hz=7.0).fs_hz == 7.0
        derived = tmp_path / "derived.csv"
        derived.write_text("pos_mm\n1.0\n0.0,2.0\n0.5,3.0\n")
        assert read_trajectory_csv(str(derived)).fs_hz == 2.0

    def test_bad_numbers_and_missing_rate_raise(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# fs_hz: 10.0\n0.0,1.0\n0.1,x\n")
        with pytest.raises(ValueError):
            read_trajectory_csv(str(path))
        path.write_text("pos_mm\n1.0\n2.0\n")
        with pytest.raises(ValueError, match="not derivable"):
            read_trajectory_csv(str(path))


# at 1e-320 Hz the sampling period, 1000 / fs_hz ms, is inf
@pytest.mark.parametrize("fs_hz", [0.0, -1.0, float("nan"), float("inf"), 1e-320])
def test_non_positive_or_non_finite_rates_are_rejected(fs_hz):
    with pytest.raises(ValueError, match="sampling frequency"):
        HandTrajectory(fs_hz=fs_hz, positions=[0.0, 1.0])
    with pytest.raises(ValueError, match="sampling frequency"):
        compliant_trajectory(fs_hz, 10, 0.02, 0.5, seed=1)


def test_negative_seeds_are_refused():
    """Random() seeds with abs(): seed -4 would give seed 4's positions."""
    compliant_trajectory(30.0, 200, 0.02, 0.8, seed=0)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        compliant_trajectory(30.0, 200, 0.02, 0.8, seed=-1)


@pytest.mark.parametrize("v_max_mps", [0.0, -0.02, float("nan"), float("inf")])
def test_non_positive_or_non_finite_ceilings_are_rejected(v_max_mps):
    """A zero ceiling used to give a trajectory that never moves."""
    with pytest.raises(ValueError, match="speed ceiling"):
        compliant_trajectory(30.0, 10, v_max_mps, 0.5, seed=1)
