"""The per-trial skeleton runner that `tcpsbench.loopsim.run_step_batch`
replaced, kept as its oracle.

It runs one channel's round trip and then the value recurrence as a scalar
Python loop over that trial's commands. `run_step_batch` runs a whole batch
of trials as one block, with the trial as the array axis;
`tests/test_step_batch.py` matches the two bit for bit.
"""

import math

import numpy as np

import carry_oracle
from tcpsbench.core import SETTING_HAPTIC, StepResponseCurve
from tcpsbench.loopsim import LoopConfig, StepExperimentRecord
from tcpsbench.transport import BACKWARD, FORWARD, DirectionStats, ImpairedChannel


def _lag_factors(t_fresh: np.ndarray, tau_ms: float) -> list[float]:
    """robot_lag's factor 1 - exp(-dt / tau) for each fresh command, dt
    since the one before (the robot's clock starts at 0)."""
    dt = np.diff(t_fresh, prepend=0.0)
    return [1.0 - math.exp(v) for v in (-dt / tau_ms).tolist()]


def run_trial(cfg: LoopConfig, channel) -> StepExperimentRecord:
    """One sweep: the channel's value-free round trip (an impaired
    channel's through the per-channel carry oracle; any other channel's
    picks must be the carry oracle's), then the PI update, robot lag and
    step plant in command order."""
    n = cfg.sweep_len
    ticks = np.add.accumulate(np.full(n, cfg.delta_ms))  # T_1 .. T_n
    sends = np.concatenate(([0.0], ticks[:-1]))
    if isinstance(channel, ImpairedChannel):
        fwd, picked, bwd = carry_oracle.round_trip(channel, sends, cfg.packet_size_b,
                                                   float(ticks[-1]))
    else:
        fwd, picked, bwd = channel.round_trip(sends, cfg.packet_size_b, float(ticks[-1]))
        assert (picked == carry_oracle.picks(fwd)).all()
    fresh = np.flatnonzero(picked)
    t_fresh = fwd[fresh]
    # the feedback on command k sits in column k, so its send index orders sequence too
    answered = carry_oracle._delivery_order(bwd)
    op_stale = len(answered) - int(np.count_nonzero(carry_oracle._newest_first_seen(answered)))

    first_tick = np.maximum(answered + 1, np.searchsorted(ticks, bwd[answered]) + 1)
    held = np.full(n + 2, -1)
    np.maximum.at(held, np.minimum(first_tick, n + 1), answered)
    held = np.maximum.accumulate(held).tolist()  # freshest feedback at each tick, -1: none

    haptic = cfg.setting == SETTING_HAPTIC
    gain = cfg.k_1 if haptic else 1.0  # the non-haptic plant passes y through; 1.0 * y is y
    step = cfg.step_index if haptic else cfg.step_index - 1  # epochs count from 1
    k_p, p_ref, k_2 = cfg.k_p, cfg.p_ref, cfg.k_2
    lags = iter(_lag_factors(t_fresh, cfg.robot_tau_ms)) if cfg.robot_tau_ms > 0.0 else None
    ys = [0.0] * n
    sig = [p_ref] * (n + 1)  # sig[-1]: the value the operator holds before any feedback
    y = 0.0 if haptic else p_ref
    robot_y = 0.0
    for k, take in enumerate(picked.tolist()):
        ys[k] = y
        if take:
            robot_y = y if lags is None else robot_y + (y - robot_y) * next(lags)
            s = gain * robot_y
            sig[k] = s if k < step else s / k_2
        y += k_p * (p_ref - sig[held[k + 1]])

    x = np.arange(n, dtype=float) if haptic else np.arange(1, n + 1, dtype=float)
    curve = StepResponseCurve(t=t_fresh, x=x[fresh], y=np.array(ys)[fresh],
                              signal=np.array(sig)[fresh], config=cfg)
    trace = list(zip(sends.tolist(), x.tolist(), ys))
    fs, bs = channel.stats[FORWARD], channel.stats[BACKWARD]
    cmd_stale = int(np.count_nonzero(fwd == fwd)) - len(fresh)
    stats = {FORWARD: DirectionStats(fs.sent, fs.delivered, fs.dropped, cmd_stale),
             BACKWARD: DirectionStats(bs.sent, bs.delivered, bs.dropped, op_stale)}
    return StepExperimentRecord(curve=curve, operator_trace=trace, channel_stats=stats)
