"""Golden differential test for the loop core.

One sha256 digest covers everything the operator and plant state machines
feed into: plant curves, operator traces and per-direction channel stats of
step runs on every bundled preset and on a reordering, lossy channel with
robot lag; one loaded topology trial; cybersickness replays; and the number
of events scheduled on the virtual clock. The digest was recorded before the
controller and plant copies were merged into Operator, Plant and Robot, so a
refactor of the loop core must leave it unchanged bit for bit. The event
count is checked on its own against SCHEDULED, because cross traffic, step
runs and the cybersickness replays have since left the clock; the digest
hashes the count it was recorded with.
"""

import hashlib
from dataclasses import replace

from tcpsbench.clock import EventScheduler
from tcpsbench.experiments import PRESET_NAMES, load_experiment
from tcpsbench.loopsim import LoopConfig, run_step_experiment
from tcpsbench.netsim import channel_from_topology, pair_flows
from tcpsbench.sickness import compliant_trajectory, measure_E
from tcpsbench.transport import ChannelModel, Jitter, LinkParams

GOLDEN_DIGEST = "1aad100b2925575e6d9886e6dae8dd79f121036627c64adba287754d5694afd2"
# Events the digest was recorded with, when every cross-traffic packet hop was
# a clock event; it stays hashed so that GOLDEN_DIGEST keeps covering the rest.
RECORDED_SCHEDULED = 60_279
# Events now that every simulated run, the loaded usnet-nw trial included,
# is a round trip off the clock.
SCHEDULED = 0

_REORDER = ChannelModel(
    forward=LinkParams(latency_ms=0.2, jitter=Jitter.uniform(3.0), drop_prob=0.05,
                       fifo=False, drop_seq=frozenset({7, 51})),
    backward=LinkParams(latency_ms=0.3, jitter=Jitter.truncnorm(0.5, 1.0), drop_prob=0.05,
                        fifo=False))


def _record_lines(tag, rec):
    yield f"{tag} samples {list(zip(*(getattr(rec.curve, k).tolist() for k in ('t', 'x', 'y', 'signal'))))!r}"
    yield f"{tag} trace {rec.operator_trace!r}"
    for direction in sorted(rec.channel_stats):
        s = rec.channel_stats[direction]
        yield f"{tag} {direction} {(s.sent, s.delivered, s.dropped, s.stale)!r}"


def _golden_lines():
    for preset in PRESET_NAMES:
        exp = load_experiment(preset)
        for seed in range(6):
            rec = run_step_experiment(replace(exp.loop, seed=seed), exp.channel.factory(seed))
            yield from _record_lines(f"{preset}/{seed}", rec)

    for setting in ("haptic", "non-haptic"):
        for seed in range(6):
            cfg = LoopConfig(setting=setting, delta_ms=1.2, robot_tau_ms=0.7, seed=seed)
            yield from _record_lines(f"reorder/{setting}/{seed}",
                                     run_step_experiment(cfg, _REORDER.build(seed)))

    exp = load_experiment("usnet-nw")
    chan = channel_from_topology(exp.channel.topology, pair_flows(16, 500_000.0, 64), 3)
    yield from _record_lines("usnet-nw/loaded", run_step_experiment(exp.loop, chan))

    traj = compliant_trajectory(30.0, 600, v_max_mps=0.02, fraction=0.8, seed=3)
    for preset in ("vrep-like", "testbed-overhead-like"):
        exp = load_experiment(preset)
        report = measure_E(traj, exp.channel.factory(2), robot_tau_ms=exp.loop.robot_tau_ms,
                           v_max_mps=0.02, packet_size_b=exp.loop.packet_size_b)
        yield (f"measure_E/{preset} {report.measured_e_pct!r} {report.predicted_e_pct!r} "
               f"{report.n_samples!r} {report.error_histogram!r}")


def test_loop_core_golden_digest(monkeypatch):
    calls = [0]
    schedule = EventScheduler.schedule

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return schedule(self, *args, **kwargs)

    monkeypatch.setattr(EventScheduler, "schedule", counted)
    h = hashlib.sha256()
    for line in _golden_lines():
        h.update(line.encode() + b"\n")
    h.update(f"scheduled {RECORDED_SCHEDULED}".encode())
    assert h.hexdigest() == GOLDEN_DIGEST
    assert calls[0] == SCHEDULED
