"""Controller, plants, oracle, and the step-experiment runners."""

import itertools
import math
import threading

import numpy as np
import pytest

from tcpsbench.core import extract_metrics
from tcpsbench.loopsim import (
    ExperimentTimeout,
    LoopConfig,
    NegativeTau,
    Operator,
    _Constants,
    _lag_factors,
    difference_trace,
    oracle_trace,
    pi_update,
    plant,
    robot_lag,
    run_socket_experiment,
    run_step_experiment,
    serve_plant,
)
from tcpsbench.transport import (
    KIND_HAPTIC,
    ChannelModel,
    DatagramEndpoint,
    Jitter,
    LinkParams,
    Packet,
    ideal_model,
)


def record_bytes(record):
    c = record.curve
    return repr(list(zip(c.t.tolist(), c.x.tolist(), c.y.tolist(), c.signal.tolist()))).encode()


def operator_at(cfg, x, y, last_p):
    op = Operator(cfg)
    op.x, op.y, op.last_p = x, y, last_p
    return op


def feedback(p, seq=0):
    return Packet(kind=KIND_HAPTIC, seq=seq, epoch=0, x=0.0, value=p)


class TestPiUpdate:
    def test_direct_substitution(self):
        op = operator_at(LoopConfig(), x=10.0, y=100.0, last_p=100.0)
        op.tick(feedback(80.0))
        assert op.y == 120.0 and op.x == 11.0

    def test_difference_equation_root(self):
        # root r = 1 - kp k1 / k2 = 0.2: y 120 with P 96 -> 124
        op = operator_at(LoopConfig(), x=0.0, y=120.0, last_p=96.0)
        op.tick(feedback(96.0))
        assert op.y == pytest.approx(124.0)

    def test_fixed_point(self):
        # y* = p_ref * k2 / k1 = 125 and P* = 100 for kp k1 = 1, k2 = 1.25
        cfg = LoopConfig()
        y_star = cfg.p_ref * cfg.k_2 / cfg.k_1
        p_star = plant(60.0, y_star, cfg)
        assert p_star == pytest.approx(100.0)
        op = operator_at(cfg, x=60.0, y=y_star, last_p=p_star)
        op.tick(feedback(p_star))
        assert op.y == pytest.approx(y_star)

    def test_missing_or_stale_feedback_holds_last_value(self):
        op = operator_at(LoopConfig(), x=10.0, y=100.0, last_p=90.0)
        op.tick(feedback(80.0, seq=5))
        op.tick(None)
        op.tick(feedback(50.0, seq=4))
        assert op.y == 100.0 + 3 * 20.0 and op.fb_seq_seen == 5

    def test_sweep_ends_after_last_command(self):
        for setting in ("haptic", "non-haptic"):
            cfg = LoopConfig(setting=setting, sweep_len=10, step_at=5)
            op = Operator(cfg)
            sent = [op.command()]
            while (pkt := op.tick(None)) is not None:
                sent.append(pkt)
            assert len(sent) == 10
            assert [p.seq for p in sent] == list(range(10))


class TestPlants:
    def test_haptic_pre_step(self):
        assert plant(10.0, 100.0, LoopConfig()) == 100.0

    def test_haptic_post_step(self):
        assert plant(50.0, 100.0, LoopConfig()) == pytest.approx(80.0)

    def test_haptic_boundary_exclusive(self):
        assert plant(49.99, 100.0, LoopConfig()) == 100.0

    def test_nonhaptic(self):
        cfg = LoopConfig(setting="non-haptic")
        assert plant(1, 100.0, cfg) == 100.0
        assert plant(49, 100.0, cfg) == 100.0
        assert plant(50, 100.0, cfg) == pytest.approx(80.0)


def _unit_gain_values():
    """Edge values (signed zeros, the least subnormal, near the largest
    float) and seeded random values across the exponent range."""
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]
    rng = np.random.default_rng(37)
    scaled = rng.standard_normal(300) * 10.0 ** rng.integers(-300, 300, 300)
    return edges, scaled.tolist()


def _bits(v) -> int:
    return int(np.float64(np.asarray(v).reshape(-1)[0]).view(np.uint64))


class TestUnitGainIsExact:
    """A unit gain multiplies like no product at all, bit for bit, on
    floats and on the one-row arrays run_step_batch computes on, so the
    loop needs no separate path for it."""

    @staticmethod
    def _constants(p_ref, as_row):
        return _Constants(as_row(1.0), as_row(1.0), as_row(1.25), as_row(p_ref), 50)

    @pytest.mark.parametrize("as_row", [float, lambda v: np.full(1, v)], ids=["float", "row"])
    def test_pi_update_with_unit_k_p_adds_the_error(self, as_row):
        edges, scaled = _unit_gain_values()
        triples = [*itertools.product(edges, repeat=3), *zip(scaled, scaled[1:], scaled[2:])]
        with np.errstate(over="ignore"):  # 1e308 - -1e308 is inf on both sides
            for y, feedback, p_ref in triples:
                got = pi_update(as_row(y), as_row(feedback), self._constants(p_ref, as_row))
                assert _bits(got) == _bits(y + (p_ref - feedback)), (y, feedback, p_ref)

    @pytest.mark.parametrize("as_row", [float, lambda v: np.full(1, v)], ids=["float", "row"])
    def test_non_haptic_plant_passes_y_before_the_step(self, as_row):
        cfg = LoopConfig(setting="non-haptic")
        assert cfg.gain == 1.0
        edges, scaled = _unit_gain_values()
        for y in edges + scaled:
            for consts in (cfg, self._constants(100.0, as_row)):
                assert _bits(plant(1, as_row(y), consts)) == _bits(y), y


class TestRobotLag:
    def test_zero_tau_pass_through(self):
        assert robot_lag(1.0, 0.0, 0.5, 0.0) == 1.0

    def test_one_time_constant(self):
        assert robot_lag(1.0, 0.0, 5.0, 5.0) == pytest.approx(1.0 - math.exp(-1.0))

    def test_large_dt_limit(self):
        assert robot_lag(1.0, 0.0, 1e6, 5.0) == pytest.approx(1.0)

    def test_negative_tau(self):
        with pytest.raises(NegativeTau):
            robot_lag(1.0, 0.0, 1.0, -1.0)

    def test_non_finite_tau(self):
        # LoopConfig refuses both: NaN would make the robot NaN, inf would freeze it
        for tau in (math.nan, math.inf):
            with pytest.raises(ValueError, match="tau_ms"):
                robot_lag(1.0, 0.0, 1.0, tau)


class TestOracle:
    def test_post_step_sequence(self):
        sigs = [sig for (_, _, sig) in oracle_trace(LoopConfig())]
        assert sigs[50:54] == pytest.approx([80.0, 96.0, 99.2, 99.84])

    def test_pre_step_converges_in_one_update(self):
        # pre-step root is 0 for kp k1 = 1: signal snaps to p_ref after one loop
        sigs = [sig for (_, _, sig) in oracle_trace(LoopConfig())]
        assert sigs[0] == 0.0
        assert sigs[1] == pytest.approx(100.0)

    def test_slow_gain_geometric_root(self):
        cfg = LoopConfig(k_p=0.6)
        sigs = [sig for (_, _, sig) in oracle_trace(cfg)]
        errs = [100.0 - s for s in sigs[50:56]]
        ratios = [errs[i + 1] / errs[i] for i in range(4)]
        for r in ratios:
            assert r == pytest.approx(1.0 - 0.6 / 1.25, abs=1e-12)  # 0.52

    def test_divergent_gain_in_difference_trace(self):
        # |1 - gain / k2| > 1 diverges; the plain helper accepts such gains
        trace = difference_trace(kp=3.0, k1=1.0, k2_pre=1.0, k2_post=1.0,
                                 p_ref=100.0, step_l=999, n_steps=40, y0=1.0)
        mags = [abs(y - 100.0 / 1.0) for (_, y, _) in trace]
        assert mags[-1] > mags[5] * 100

    def test_stable_gain_converges(self):
        trace = difference_trace(kp=1.0, k1=1.0, k2_pre=1.0, k2_post=1.25,
                                 p_ref=100.0, step_l=10, n_steps=60, y0=0.0)
        assert trace[-1][2] == pytest.approx(100.0, abs=1e-6)


class TestRunStepExperiment:
    def test_matches_oracle_on_ideal_channel(self):
        cfg = LoopConfig()
        rec = run_step_experiment(cfg, ideal_model(0.4).build(1))  # RTT < delta
        sim = rec.curve.signal.tolist()
        ora = [sig for (_, _, sig) in oracle_trace(cfg)]
        assert len(sim) == len(ora)
        assert max(abs(a - b) for a, b in zip(sim, ora)) <= 1e-9

    def test_matches_oracle_rtt_equal_delta(self):
        # arrivals landing exactly on a check instant are visible to it
        cfg = LoopConfig(delta_ms=1.0)
        rec = run_step_experiment(cfg, ideal_model(0.5).build(1))
        sim = rec.curve.signal.tolist()
        ora = [sig for (_, _, sig) in oracle_trace(cfg)]
        assert max(abs(a - b) for a, b in zip(sim, ora)) <= 1e-9

    def test_nonhaptic_matches_oracle(self):
        cfg = LoopConfig(setting="non-haptic")
        rec = run_step_experiment(cfg, ideal_model(0.4).build(2))
        sim = rec.curve.signal.tolist()
        ora = [sig for (_, _, sig) in oracle_trace(cfg)]
        assert max(abs(a - b) for a, b in zip(sim, ora)) <= 1e-9

    def test_deterministic_bitwise(self):
        model = ChannelModel(
            forward=LinkParams(jitter=Jitter.truncnorm(0.2, 0.3), drop_prob=0.02),
            backward=LinkParams(jitter=Jitter.uniform(0.4), drop_prob=0.02))
        a = run_step_experiment(LoopConfig(seed=4), model.build(4))
        b = run_step_experiment(LoopConfig(seed=4), model.build(4))
        assert record_bytes(a) == record_bytes(b)
        assert a.operator_trace == b.operator_trace

    def test_different_seed_differs(self):
        model = ChannelModel(forward=LinkParams(jitter=Jitter.uniform(0.5)),
                             backward=LinkParams(jitter=Jitter.uniform(0.5)))
        a = run_step_experiment(LoopConfig(seed=4), model.build(4))
        b = run_step_experiment(LoopConfig(seed=5), model.build(5))
        assert record_bytes(a) != record_bytes(b)

    def test_last_value_hold_on_drop(self):
        # dropping the feedback of loop l leaves the controller's P at its
        # previous value: reconstruct P_l from the command increments
        cfg = LoopConfig()
        model = ChannelModel(forward=LinkParams(),
                             backward=LinkParams(drop_seq=frozenset({20})))
        rec = run_step_experiment(cfg, model.build(1))
        ys = [y for (_, _, y) in rec.operator_trace]
        p_seen = [cfg.p_ref - (ys[i + 1] - ys[i]) / cfg.k_p for i in range(len(ys) - 1)]
        # feedback 20 dropped: the controller's P at check 21 equals P at check 20
        assert p_seen[21] == pytest.approx(p_seen[20])

    def test_start_overshoot_with_gain_matching_k2(self):
        rec = run_step_experiment(LoopConfig(k_p=1.25), ideal_model(0.4).build(1))
        pre = rec.curve.signal[rec.curve.x < 50].tolist()
        assert any(v > 100.0 for v in pre)
        # alternating transient: at least one sample below p_ref after the peak
        peak_idx = max(range(len(pre)), key=lambda i: pre[i])
        assert any(v < 100.0 for v in pre[peak_idx:])

    def test_no_start_overshoot_with_unit_gain(self):
        rec = run_step_experiment(LoopConfig(k_p=1.0), ideal_model(0.4).build(1))
        pre = rec.curve.signal[rec.curve.x < 50].tolist()
        assert all(v <= 100.0 + 1e-12 for v in pre)

    def test_freshest_wins_under_reordering(self):
        # non-FIFO jitter larger than the send gap reorders packets; stale
        # ones are discarded so the plant log's sweep coordinate never regresses
        model = ChannelModel(
            forward=LinkParams(latency_ms=0.2, jitter=Jitter.uniform(5.0), fifo=False),
            backward=LinkParams(latency_ms=0.2, jitter=Jitter.uniform(5.0), fifo=False))
        rec = run_step_experiment(LoopConfig(seed=3), model.build(3))
        xs = rec.curve.x.tolist()
        assert all(b > a for a, b in zip(xs, xs[1:]))
        stale = rec.channel_stats["forward"].stale + rec.channel_stats["backward"].stale
        assert stale > 0  # reordering actually happened

    def test_stats_account_for_drops(self):
        model = ChannelModel(forward=LinkParams(drop_prob=0.3),
                             backward=LinkParams(drop_prob=0.3))
        rec = run_step_experiment(LoopConfig(seed=6), model.build(6))
        f = rec.channel_stats["forward"]
        assert f.sent == 100
        assert f.dropped > 0
        assert f.delivered + f.dropped == f.sent

    def test_valid_config_can_diverge_pre_step(self):
        # kp k1 = 2.4 <= k2 = 2.5 is a legal config, but the pre-step root
        # 1 - 2.4 is outside the unit circle: the sweep oscillates and grows
        cfg = LoopConfig(k_p=2.4, k_2=2.5, sweep_len=40)
        rec = run_step_experiment(cfg, ideal_model(0.4).build(1))
        sim = rec.curve.signal.tolist()
        ora = [sig for (_, _, sig) in oracle_trace(cfg, 40)]
        assert max(abs(a - b) for a, b in zip(sim, ora)) <= 1e-6 * max(map(abs, ora))
        mags = [abs(s - 100.0) for s in sim[:20]]
        assert mags[-1] > mags[2] * 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoopConfig(delta_ms=0.0)
        with pytest.raises(ValueError):
            LoopConfig(k_2=1.0)
        with pytest.raises(ValueError):
            LoopConfig(k_p=2.0, k_2=1.5)  # gain above k2
        with pytest.raises(ValueError):
            LoopConfig(step_at=100)
        for size in (0, -5, 32.5, True):  # a float or bool size used to run
            with pytest.raises(ValueError, match="packet_size_b"):
                LoopConfig(packet_size_b=size)

    def test_initial_states(self):
        h = Operator(LoopConfig())
        assert (h.x, h.y) == (0.0, 0.0)
        nh = Operator(LoopConfig(setting="non-haptic"))
        assert (nh.x, nh.y) == (1.0, 100.0)

    def test_robot_lag_in_experiment_slows_rise(self):
        fast = run_step_experiment(LoopConfig(), ideal_model(0.4).build(1))
        slow = run_step_experiment(LoopConfig(robot_tau_ms=2.0), ideal_model(0.4).build(1))
        m_fast = extract_metrics(fast.curve)
        m_slow = extract_metrics(slow.curve)
        assert m_slow.t_r > m_fast.t_r


class TestSocketMode:
    def test_step_experiment_over_loopback(self):
        cfg = LoopConfig(delta_ms=5.0, sweep_len=30, step_at=15)
        plant_ep = DatagramEndpoint(("127.0.0.1", 0), packet_size_b=cfg.packet_size_b)
        plant_addr = plant_ep.local_address
        curves = []

        def plant():
            curves.append(serve_plant(plant_ep, cfg, deadline_ms=3000.0))

        thread = threading.Thread(target=plant, daemon=True)
        thread.start()
        op_ep = DatagramEndpoint(("127.0.0.1", 0), plant_addr,
                                 packet_size_b=cfg.packet_size_b)
        try:
            record = run_socket_experiment(cfg, op_ep, deadline_ms=3000.0)
        finally:
            op_ep.close()
        thread.join(timeout=10.0)
        plant_ep.close()
        assert not thread.is_alive()
        assert len(record.operator_trace) == cfg.sweep_len
        assert curves and len(curves[0].t) >= cfg.sweep_len - 2
        metrics = extract_metrics(curves[0])
        assert metrics.t0 > 0.0  # the injected step is in the log

    def test_timeout_without_responder(self):
        # sweep runtime far exceeds the feedback deadline, so the hold loop
        # must abort rather than run the sweep to completion
        cfg = LoopConfig(delta_ms=2.0, sweep_len=400, step_at=200)
        dead = DatagramEndpoint(("127.0.0.1", 0), ("127.0.0.1", 1))  # nobody listens
        try:
            with pytest.raises(ExperimentTimeout):
                run_socket_experiment(cfg, dead, deadline_ms=60.0)
        finally:
            dead.close()


def test_lag_factors_match_one_exp_per_step():
    """_lag_factors calls math.exp once per step, and measure_E calls it on
    a replay's distinct steps only, gathering the factors by np.unique's
    inverse. Both must give the per-step list bit for bit, on steps that
    repeat (a replay's few distinct sampling periods), rows, NaN, +0.0 and
    -0.0 (np.unique merges them, and exp of either is 1.0)."""
    def per_step(dt, tau):
        return [1.0 - math.exp(v) for v in (-np.asarray(dt) / tau).ravel().tolist()]

    rng = np.random.default_rng(5)
    periods = 1000.0 / np.array([20.0, 30.0, 40.0])
    cases = [np.diff(np.add.accumulate(np.repeat(periods, 400)), prepend=0.0),
             rng.choice([0.5, 1.25, 2.0, 0.0, -0.0, math.nan], size=(7, 60)),
             np.array([0.0, -0.0, -0.0, 0.0, math.nan, math.nan, 1e-300, 3.0]),
             rng.uniform(0.0, 5.0, 500), np.empty(0)]
    for dt in cases:
        for tau in (0.3, 1.0, 50.0):
            got, want = _lag_factors(dt, tau), per_step(dt, tau)
            assert repr(got) == repr(want) and type(got) is list, (dt, tau)
            steps, at = np.unique(dt, return_inverse=True)
            gathered = np.array(_lag_factors(steps, tau), dtype=float)[at]
            assert repr(gathered.ravel().tolist()) == repr(want), (dt, tau)
    assert len(set(per_step(cases[0], 50.0))) < 40 < len(cases[0])
