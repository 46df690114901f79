"""Differential test of the cybersickness replay against the event loop.

`tcpsbench.sickness.measure_E` computes a replay as a timing skeleton plus a
value recurrence; `tests/sickness_oracle.py` keeps the event-driven replay
it replaced, which runs on topologies over the event-per-packet channel of
`tests/netsim_oracle.py`. On random trajectories, sampling rates, robot
lags and channels (ideal, impaired, topologies with and without cross
traffic), both must report the same exposure, sample count and histogram,
and reach them from the same errors in the same order, bit for bit
(compared through repr), or fail with the same error type.
"""

from collections import Counter
from random import Random

import numpy as np
import pytest

import netsim_oracle
import sickness_oracle
from random_topologies import count_waiting_batches, random_flows, random_topology
from tcpsbench import sickness
from tcpsbench.netsim import channel_from_topology
from tcpsbench.sickness import HandTrajectory
from tcpsbench.transport import ChannelModel, Jitter, LinkParams, ideal_model

CASES = 400
KINDS = ("ideal", "impaired", "tactile-only", "loaded")


def _link(rng, period_ms, size_b):
    jitter = rng.choice((Jitter.none(), Jitter.uniform(rng.uniform(0.0, 3.0 * period_ms)),
                         Jitter.truncnorm(rng.uniform(0.0, period_ms),
                                          rng.uniform(0.1, 2.0) * period_ms)))
    bandwidth = 0.0
    if rng.random() < 0.3:
        bandwidth = size_b * 8.0 / (period_ms * rng.uniform(0.2, 3.0)) * 1000.0
    return LinkParams(latency_ms=rng.choice((0.0, rng.uniform(0.0, 3.0 * period_ms))),
                      jitter=jitter, drop_prob=rng.choice((0.0, 0.0, rng.uniform(0.0, 0.3), 1.0)),
                      bandwidth_bps=bandwidth, fifo=rng.random() < 0.5,
                      drop_seq=frozenset(rng.sample(range(40), rng.randint(0, 3))))


def _case(i):
    """(trajectory, channel factory, measure_E keywords, kind) of case i; on
    a topology the factory builds the event-per-packet channel when oracle
    is set."""
    rng = Random(9000 + i)
    n = rng.randint(2, 150)
    step_mm = rng.choice((0.01, 0.3, 1.0, 5.0))
    start_mm = rng.choice((0.0, rng.uniform(-100.0, 100.0)))
    positions = np.cumsum([start_mm] + [rng.uniform(-step_mm, step_mm) for _ in range(n - 1)])
    fs_hz = rng.choice((20.0, 30.0, rng.uniform(10.0, 1000.0)))
    rate = rng.choice((None, None, rng.uniform(10.0, 1000.0)))
    traj = HandTrajectory(fs_hz=fs_hz if rate is None else rate, positions=positions)
    period_ms = 1000.0 / traj.fs_hz
    size_b = rng.choice((32, 64, 256))
    kind = KINDS[i % 4]
    if kind == "ideal":
        model = ideal_model(rng.choice((0.0, period_ms / 2, rng.uniform(0.0, 3.0 * period_ms))))
        factory = lambda oracle=False: model.build(i)
    elif kind == "impaired":
        model = ChannelModel(forward=_link(rng, period_ms, size_b),
                             backward=_link(rng, period_ms, size_b))
        factory = lambda oracle=False: model.build(i)
    else:
        topo = random_topology(rng, size_b, (0.05 * period_ms, 3.0 * period_ms))
        flows = random_flows(rng, topo) if kind == "loaded" else ()
        cap = rng.choice((None, None, rng.randint(1, 6)))
        factory = lambda oracle=False: (netsim_oracle.NetsimChannel if oracle else
                                        channel_from_topology)(topo, flows, i, cap)
    kw = dict(robot_tau_ms=rng.choice((0.0, rng.uniform(0.1, 5.0) * period_ms)),
              v_max_mps=rng.choice((0.0, 0.02, rng.uniform(0.001, 0.5))), packet_size_b=size_b)
    return traj, factory, kw, kind


def _report(measure, traj, channel, kw):
    try:
        r = measure(traj, channel, **kw)
    except Exception as exc:  # the error type must match too
        return type(exc).__name__
    return repr((r.measured_e_pct, r.predicted_e_pct, r.n_samples, r.error_histogram))


@pytest.mark.parametrize("block", range(8))
def test_replay_matches_the_event_loop(block, monkeypatch):
    # both replays hand their errors to the histogram; record them there
    errors = []
    histogram = sickness._histogram

    def recorded(err):
        errors.append(repr(err.tolist()))
        return histogram(err)

    monkeypatch.setattr(sickness, "_histogram", recorded)
    monkeypatch.setattr(sickness_oracle, "_histogram", recorded)
    for i in range(block * CASES // 8, (block + 1) * CASES // 8):
        traj, factory, kw, _ = _case(i)
        errors.clear()
        got = _report(sickness.measure_E, traj, factory(), kw)
        want = _report(sickness_oracle.measure_E, traj, factory(oracle=True), kw)
        assert got == want, f"case {i}"
        assert len(errors) in (0, 2) and errors[:1] == errors[1:], f"case {i}"


def test_cases_cover_the_channel_features(monkeypatch):
    """The random cases are not vacuous: tactile-only topologies really
    queue (a packet waits for the transmitter, so the batch falls back to
    Lindley's recurrence) and tail-drop, loaded topologies keep flows, the
    robot lag runs on time steps that repeat (fewer distinct steps than half
    the steps, as a replay's sampling periods) and on steps that are all
    distinct (jittery channels), and the other features each occur."""
    slow_batches = count_waiting_batches(monkeypatch)
    lag_steps = []  # (distinct, all) time steps of each robot lag run
    lagged = sickness._lagged

    def recorded(y0, cmds, t, tau_ms):
        dt = np.diff(t, prepend=0.0)
        lag_steps.append((len(np.unique(dt)), len(dt)))
        return lagged(y0, cmds, t, tau_ms)

    monkeypatch.setattr(sickness, "_lagged", recorded)
    seen = Counter()
    for i in range(CASES):
        traj, factory, kw, kind = _case(i)
        chan = factory()
        before = slow_batches[0]
        lag_steps.clear()
        report = _report(sickness.measure_E, traj, chan, kw)
        seen[kind] += 1
        seen["error"] += not report.startswith("(")
        seen["robot lag"] += kw["robot_tau_ms"] > 0.0
        for distinct, steps in lag_steps:
            seen["lag, repeated steps"] += 2 * distinct < steps
            seen["lag, all steps distinct"] += distinct == steps >= 10
        seen["free rate"] += traj.fs_hz not in (20.0, 30.0)
        dropped = any(s.dropped for s in chan.stats.values())
        if kind == "impaired":
            links = (chan.model.forward, chan.model.backward)
            seen["random drops"] += any(p.drop_prob > 0.0 for p in links) and dropped
            seen["drop_seq"] += any(p.drop_seq and min(p.drop_seq) < len(traj.positions)
                                    for p in links)
            seen["fifo off"] += not all(p.fifo for p in links)
            seen["impaired bandwidth"] += any(p.bandwidth_bps for p in links)
            for p in links:
                seen[p.jitter.kind] += 1
        elif kind == "tactile-only":
            seen["queued"] += slow_batches[0] > before
            seen["tail drop"] += dropped
            seen["queue cap"] += chan._cap is not None and bool(chan._links)
            seen["zero hop"] += not chan._routes["forward"]
        elif kind == "loaded":
            seen["flows kept"] += bool(chan._emitters)
    for feature in ("queued", "tail drop", "queue cap", "zero hop", "flows kept", "robot lag",
                    "lag, repeated steps", "lag, all steps distinct",
                    "free rate", "random drops", "drop_seq", "fifo off",
                    "impaired bandwidth", "none", "uniform", "truncnorm", "error"):
        assert seen[feature] >= 5, (feature, seen)
