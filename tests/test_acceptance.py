"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Budgeted runtimes are asserted where the criterion states one.
"""

import math
import time
from random import Random

import pytest

from tcpsbench.core import extract_metrics
from tcpsbench.experiments import load_experiment
from tcpsbench.loopsim import LoopConfig, oracle_trace, run_step_experiment
from tcpsbench.netsim import Topology, channel_from_topology, closed_form_delivery, pair_flows, simulate_delivery
from tcpsbench.qoc import (
    SearchConfig,
    StepRunner,
    ci_halfwidth,
    estimate_goodness,
    find_delta_opt_bar,
    iae,
    perf_curve,
    qoc_value,
    v_max,
)
from tcpsbench.sickness import compliant_trajectory, measure_E, predict_E
from tcpsbench.transport import (
    ChannelModel,
    ChecksumMismatch,
    Jitter,
    LinkParams,
    decode,
    encode,
    ideal_model,
)


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE CRITERION {criterion}: PASS ({detail})")


def ideal_runner(cfg: LoopConfig | None = None) -> StepRunner:
    return StepRunner(cfg=cfg or LoopConfig(), channel_factory=ideal_model(0.5).build)


def test_criterion_01_ideal_system_calibration():
    started = time.perf_counter()
    cfg = LoopConfig(delta_ms=1.0)
    record = run_step_experiment(cfg, ideal_model(0.5).build(1))
    metrics = extract_metrics(record.curve)
    assert 1.3 <= metrics.t_r <= 1.7

    sim = record.curve.signal.tolist()
    oracle = [sig for (_, _, sig) in oracle_trace(cfg)]
    worst = max(abs(a - b) for a, b in zip(sim, oracle))
    assert worst <= 1e-9
    assert sim[50:54] == pytest.approx([80.0, 96.0, 99.2, 99.84], abs=1e-9)

    result = find_delta_opt_bar(
        ideal_runner(), 1.0,
        SearchConfig(delta_min_ms=0.2, delta_max_ms=2.0, delta_step_ms=0.1, seed=1))
    assert -0.06 <= result.qoc <= 0.06

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"t_r={metrics.t_r:.3f} ms, qoc={result.qoc:.4f}, "
              f"oracle max err={worst:.1e}, {elapsed:.2f}s")


def test_criterion_02_paper_number_regression():
    assert qoc_value(3.364) == pytest.approx(-0.3508, abs=0.001)
    pairs = [(-0.35, 0.447), (-0.92, 0.120), (-1.7, 0.0200), (-2.99, 0.00102)]
    for q, expected in pairs:
        assert v_max(q) == pytest.approx(expected, abs=0.001)
    # reported two-significant-figure values line up within truncation slack
    for q, reported in [(-0.35, 0.44), (-0.92, 0.12), (-1.7, 0.02), (-2.99, 0.001)]:
        assert v_max(q) == pytest.approx(reported, rel=0.05)
    report(2, "qoc(3.364)=-0.3508 and four v_max regressions within 0.001")


def test_criterion_03_oracle_equivalence_sweep():
    started = time.perf_counter()
    rng = Random(2024)
    checked = 0
    worst = 0.0
    while checked < 100:
        k2 = rng.uniform(1.1, 2.0)
        gain = rng.uniform(0.5, 1.25)
        if gain > k2:
            continue  # joint validity: gain must not exceed the step divisor
        delta = rng.uniform(0.5, 5.0)
        latency = rng.uniform(0.05, 0.49) * delta  # RTT < delta
        cfg = LoopConfig(k_p=gain, k_1=1.0, k_2=k2, delta_ms=delta, seed=checked)
        record = run_step_experiment(cfg, ideal_model(latency).build(checked))
        sim = record.curve.signal.tolist()
        oracle = [sig for (_, _, sig) in oracle_trace(cfg)]
        assert len(sim) == len(oracle)
        err = max(abs(a - b) for a, b in zip(sim, oracle))
        worst = max(worst, err)
        assert err <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(3, f"100 random configs, worst pointwise err={worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_start_overshoot_property():
    rec_hot = run_step_experiment(LoopConfig(k_p=1.25), ideal_model(0.4).build(1))
    pre_hot = rec_hot.curve.signal[rec_hot.curve.x < 50].tolist()
    assert any(v > 100.0 for v in pre_hot)

    rec_unit = run_step_experiment(LoopConfig(k_p=1.0), ideal_model(0.4).build(1))
    pre_unit = rec_unit.curve.signal[rec_unit.curve.x < 50].tolist()
    assert not any(v > 100.0 for v in pre_unit)
    report(4, f"gain 1.25 peaks at {max(pre_hot):.1f} before the step; gain 1.0 never "
              f"exceeds {max(pre_unit):.1f}")


def test_criterion_05_single_drop_overshoot_property():
    # drop the feedback of the first post-step correction (sequence 51)
    overshoots = {}
    for gain in (1.0, 0.6):
        model = ChannelModel(forward=LinkParams(),
                             backward=LinkParams(drop_seq=frozenset({51})))
        record = run_step_experiment(LoopConfig(k_p=gain), model.build(1))
        overshoots[gain] = extract_metrics(record.curve).overshoot_pct
    assert overshoots[1.0] > 5.0
    assert overshoots[0.6] == 0.0
    report(5, f"overshoot {overshoots[1.0]:.0f}% at unit gain, "
              f"{overshoots[0.6]:.0f}% at gain 0.6")


class TestCriterion06Monotonicity:
    SEEDS = list(range(1, 21))

    def test_a_latency_lowers_qoc(self):
        started = time.perf_counter()
        jitter = Jitter.truncnorm(0.05, 0.1)
        per_seed = []
        for seed in self.SEEDS:
            qocs = []
            for latency in (0.5, 5.0, 20.0):
                model = ChannelModel(forward=LinkParams(latency_ms=latency, jitter=jitter),
                                     backward=LinkParams(latency_ms=latency, jitter=jitter))
                runner = StepRunner(cfg=LoopConfig(), channel_factory=model.build)
                rtt = 2 * latency
                search = SearchConfig(delta_min_ms=rtt, delta_max_ms=rtt + 3.0,
                                      delta_step_ms=0.25, seed=seed, m_max=300)
                qocs.append(find_delta_opt_bar(runner, 0.9, search).qoc)
            assert qocs[0] > qocs[1] > qocs[2], f"seed {seed}: {qocs}"
            per_seed.append(qocs)
        print(f"\n  6a: {len(per_seed)} seeds strictly ordered "
              f"(median {sorted(q[0] for q in per_seed)[10]:.2f} > "
              f"{sorted(q[1] for q in per_seed)[10]:.2f} > "
              f"{sorted(q[2] for q in per_seed)[10]:.2f}), "
              f"{time.perf_counter() - started:.0f}s")

    def test_b_drop_probability_lowers_goodness(self):
        started = time.perf_counter()
        for seed in self.SEEDS:
            gs = []
            for p in (0.0, 0.05, 0.2):
                model = ChannelModel(forward=LinkParams(drop_prob=p),
                                     backward=LinkParams(drop_prob=p))
                runner = StepRunner(cfg=LoopConfig(), channel_factory=model.build)
                search = SearchConfig(seed=seed, m_batch=80, m_max=720)
                gs.append(estimate_goodness(runner, 1.0, search).g)
            assert gs[0] > gs[1] > gs[2], f"seed {seed}: {gs}"
        print(f"\n  6b: goodness strictly falls over drop 0 -> 0.05 -> 0.2 for "
              f"{len(self.SEEDS)} seeds, {time.perf_counter() - started:.0f}s")

    def test_c_and_d_delta_bar_and_curve_monotone(self):
        started = time.perf_counter()
        # jitter-only impairment: random drops would cap goodness below 0.99
        # at every loop time, leaving the top target unreachable
        jitter = Jitter.truncnorm(0.3, 0.5)
        model = ChannelModel(forward=LinkParams(jitter=jitter),
                             backward=LinkParams(jitter=jitter))
        specs = [0.5, 0.7, 0.9, 0.99]
        for seed in self.SEEDS:
            runner = StepRunner(cfg=LoopConfig(), channel_factory=model.build)
            search = SearchConfig(delta_min_ms=1.0, delta_max_ms=8.0, delta_step_ms=0.25,
                                  seed=seed, m_max=300)
            curve = perf_curve(runner, specs, search)
            assert not curve.missing, f"seed {seed}: missing {curve.missing}"
            deltas = [p.delta_opt_bar_ms for p in curve.points]
            qocs = [p.qoc for p in curve.points]
            assert all(b >= a for a, b in zip(deltas, deltas[1:])), f"seed {seed}"
            assert all(b <= a + 1e-9 for a, b in zip(qocs, qocs[1:])), f"seed {seed}"
        elapsed = time.perf_counter() - started
        print(f"\n  6c/6d: delta-bar nondecreasing and curve nonincreasing over "
              f"{len(self.SEEDS)} seeds, {elapsed:.0f}s")
        report(6, "latency, drop and target monotonicity all hold per seed")


def test_criterion_07_confidence_interval_rule():
    checked = 0
    for p, m_max in ((0.0, 600), (0.07, 600), (0.15, 600), (0.3, 60)):
        model = ChannelModel(forward=LinkParams(drop_prob=p),
                             backward=LinkParams(drop_prob=p))
        runner = StepRunner(cfg=LoopConfig(), channel_factory=model.build)
        est = estimate_goodness(runner, 1.0, SearchConfig(seed=9, m_max=m_max))
        assert est.ci == ci_halfwidth(est.g, est.m)
        assert est.ci <= 0.05 or est.m_cap_exceeded
        checked += 1
    # arithmetic floor near ninety percent goodness
    assert math.ceil(1.96 ** 2 * 0.9 * 0.1 / 0.05 ** 2) == 139
    report(7, f"{checked} estimates satisfy the rule; m(0.9) floor is 139")


def test_criterion_08_cybersickness_predict_vs_measure():
    started = time.perf_counter()
    exp = load_experiment("vrep-like")
    # hand-speed ceiling measured on the same channel the replay uses
    result = find_delta_opt_bar(exp.runner(), 1.0, exp.search)
    ceiling = result.v_max_mps
    assert 0.0 < ceiling < 0.1

    gaps = []
    for fs, fraction in ((40.0, 0.77), (30.0, 0.82), (20.0, 0.88)):
        traj = compliant_trajectory(fs, 3000, ceiling, fraction, seed=int(fs))
        predicted = predict_E(traj, ceiling)
        assert predicted == fraction * 100  # exact by construction
        rep = measure_E(traj, exp.channel.factory(int(fs)),
                        robot_tau_ms=exp.loop.robot_tau_ms, v_max_mps=ceiling,
                        packet_size_b=exp.loop.packet_size_b)
        gap = abs(rep.measured_e_pct - predicted)
        gaps.append((fs, predicted, rep.measured_e_pct, gap))
        assert gap <= 5.0, f"fs={fs}: predicted {predicted}, measured {rep.measured_e_pct}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    detail = ", ".join(f"fs={fs:.0f}: {p:.0f}->{m:.1f}" for fs, p, m, _ in gaps)
    report(8, f"v_max={ceiling:.4f} m/s; {detail}; {elapsed:.0f}s")


@pytest.fixture(scope="module")
def experiment():
    return load_experiment("usnet-nw")


class TestCriterion09Netsim:

    def test_a_zero_traffic_closed_form(self, experiment):
        topo = experiment.channel.topology
        for src, dst in (("S0", "S8"), ("S1", "S3"), ("S6", "S8")):
            sim = simulate_delivery(topo, (), 32, 0.0, src=src, dst=dst)
            ref = closed_form_delivery(topo, 32, 0.0, src=src, dst=dst)
            assert sim == ref  # exact equality, same arithmetic order
        report(9, "a: zero-traffic deliveries equal the closed form exactly")

    def test_b_and_c_traffic_and_placement(self, experiment):
        started = time.perf_counter()
        topo = experiment.channel.topology
        search = experiment.search
        loop = experiment.loop
        limits = experiment.limits

        def qoc_for(te_master, te_slave, rate):
            placed = Topology(switches=topo.switches, links=topo.links,
                              hosts=topo.hosts, te_master=te_master, te_slave=te_slave)
            flows = pair_flows(16, rate, 64) if rate > 0 else ()
            runner = StepRunner(
                cfg=loop,
                channel_factory=lambda seed: channel_from_topology(placed, flows, seed),
                limits=limits)
            return find_delta_opt_bar(runner, 0.9, search).qoc

        qoc_250 = qoc_for("S0", "S8", 250_000.0)
        qoc_500 = qoc_for("S0", "S8", 500_000.0)
        qoc_625 = qoc_for("S0", "S8", 625_000.0)

        # (c) 250 and 500 kbps sit together; 625 kbps sits strictly below
        assert abs(qoc_250 - qoc_500) <= 0.05
        assert qoc_625 < min(qoc_250, qoc_500)

        # (b) the traffic-loaded placement never beats an unloaded one
        unloaded = {}
        for a, b in (("S1", "S3"), ("S2", "S4"), ("S6", "S8")):
            unloaded[(a, b)] = qoc_for(a, b, 625_000.0)
        for placement, q in unloaded.items():
            assert qoc_625 <= q, f"loaded route beat {placement}"

        elapsed = time.perf_counter() - started
        assert elapsed < 300.0
        report(9, f"b,c: qoc(250k)={qoc_250:.3f}, qoc(500k)={qoc_500:.3f}, "
                  f"qoc(625k)={qoc_625:.3f}; unloaded placements "
                  f"{[round(q, 3) for q in unloaded.values()]}; {elapsed:.0f}s")


def test_criterion_10_codec():
    from tcpsbench.transport import KIND_HAPTIC, KIND_KINEMATIC, Packet

    rng = Random(77)

    def random_packet():
        return Packet(kind=rng.choice((KIND_KINEMATIC, KIND_HAPTIC)),
                      seq=rng.randrange(0, 2 ** 32),
                      epoch=rng.randrange(0, 2 ** 32),
                      x=rng.randrange(-10 ** 7, 10 ** 7) / 1000.0,
                      value=rng.randrange(-10 ** 7, 10 ** 7) / 1000.0)

    # 1000 random packets round-trip exactly, and a corrupted copy of each
    # (one random bit flipped) fails checksum verification
    sizes = (32, 256, 1024)
    for i in range(1000):
        pkt = random_packet()
        size = sizes[i % 3]
        data = encode(pkt, size, rng)
        assert len(data) == size
        assert decode(data) == pkt
        corrupted = bytearray(data)
        bit = rng.randrange(0, len(data) * 8)
        corrupted[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(ChecksumMismatch):
            decode(bytes(corrupted))

    # exhaustive single-bit coverage on a handful of packets
    exhaustive = 0
    for _ in range(3):
        pkt = random_packet()
        data = encode(pkt, 32, rng)
        for bit in range(len(data) * 8):
            corrupted = bytearray(data)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(ChecksumMismatch):
                decode(bytes(corrupted))
            exhaustive += 1
    report(10, f"1000 round-trips over sizes {sizes}; {1000 + exhaustive} "
               f"single-bit corruptions all detected")


def test_criterion_11_iae_check():
    cfg = LoopConfig(delta_ms=1.0)
    record = run_step_experiment(cfg, ideal_model(0.5).build(1))
    onset = extract_metrics(record.curve).t0
    value = iae(record.curve, onset)
    assert value == pytest.approx(25.0, abs=1.0)
    report(11, f"ideal-run IAE = {value:.4f} units*ms (geometric-sum reference 25)")
