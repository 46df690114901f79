"""Closed-loop step-response experiments.

The operator side is a PI controller paced by a loop wait time; the
teleoperator side is a reactive plant that injects a step change halfway
through the sweep (a pressure drop in the haptic setting, a coordinate jump
in the non-haptic one) and logs every received command with its arrival
time. Experiments run against a simulated channel, or against a real
datagram endpoint pair in wall-clock time. A simulated run is a timing
skeleton plus a value recurrence: the arrival times never depend on the
values, so the channel decides them first as one value-free round trip, off
the clock, and the controller and plant values follow in command order.
Simulated runs go in batches at one configuration, over the rows of a
block (ChannelRows or an ImpairedBlock), each trial (row) at its own loop
time: the recurrence runs once per batch, with the trial as the array axis.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    SETTING_HAPTIC,
    SETTING_NONHAPTIC,
    CurveBatch,
    StepResponseCurve,
    TcpsbenchError,
    check_packet_size,
    check_seed,
)
from .transport import (
    BACKWARD,
    FORWARD,
    KIND_HAPTIC,
    KIND_KINEMATIC,
    ChannelRows,
    DatagramEndpoint,
    DirectionStats,
    Packet,
    SocketTimeout,
    _fresh_mask,
)


class NegativeTau(TcpsbenchError):
    pass


class ExperimentTimeout(TcpsbenchError):
    """Real-socket run saw no feedback within its deadline."""


# most commands a sweep may hold: a search call of 128 trials (qoc.WAVE_TRIALS)
# peaks at about 18 KB a command (impaired channel with robot lag, traced by
# tracemalloc), so about 1.8 GB at this bound; no preset, demo or test
# sweeps past 400
MAX_SWEEP_LEN = 100_000


@dataclass(frozen=True)
class LoopConfig:
    """Controller and plant constants for one experiment.

    p_ref doubles as Y_ref in the non-haptic setting. sweep_len is X in cm
    for the haptic sweep or the total epoch count otherwise; the step fires
    at step_at (default: half the sweep). robot_tau_ms > 0 inserts a
    first-order actuation lag at the teleoperator.
    """

    k_p: float = 1.0
    k_1: float = 1.0
    k_2: float = 1.25
    p_ref: float = 100.0
    delta_ms: float = 1.0
    sweep_len: int = 100
    step_at: int | None = None
    packet_size_b: int = 32
    setting: str = SETTING_HAPTIC
    robot_tau_ms: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("k_p", "k_1", "k_2", "p_ref", "delta_ms", "robot_tau_ms"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.setting not in (SETTING_HAPTIC, SETTING_NONHAPTIC):
            raise ValueError(f"setting must be {SETTING_HAPTIC!r} or {SETTING_NONHAPTIC!r}, "
                             f"got {self.setting!r}")
        if self.delta_ms <= 0.0:
            raise ValueError("delta_ms must be positive")
        check_packet_size(self.packet_size_b)
        if self.k_2 <= 1.0:
            raise ValueError("k_2 must exceed 1")
        gain = self.k_p * self.k_1
        if not 0.0 < gain <= self.k_2 + 1e-12:
            raise ValueError(f"k_p*k_1 = {gain} outside (0, k_2]")
        if self.robot_tau_ms < 0.0:
            raise NegativeTau("robot_tau_ms must be >= 0")
        if self.sweep_len > MAX_SWEEP_LEN:
            raise ValueError(f"sweep_len must be at most {MAX_SWEEP_LEN}, got {self.sweep_len}")
        step = self.step_index
        if not 0 < step < self.sweep_len:
            raise ValueError("step_at must fall inside the sweep")
        check_seed(self.seed)

    @property
    def step_index(self) -> int:
        return self.sweep_len // 2 if self.step_at is None else self.step_at

    @property
    def gain(self) -> float:
        """The step plant's gain on y: k_1, or 1.0: the non-haptic plant passes y through."""
        return self.k_1 if self.setting == SETTING_HAPTIC else 1.0

    @property
    def last_x(self) -> int:
        """Sweep coordinate (haptic) or epoch of the sweep's final command."""
        return self.sweep_len - 1 if self.setting == SETTING_HAPTIC else self.sweep_len


class Operator:
    """PI operator as a sans-I/O state machine: it never reads a clock or
    touches a channel. The caller sends command() once at the start, then
    calls tick() every loop wait time with the freshest feedback packet it
    holds (or None) and sends what tick() returns."""

    def __init__(self, cfg: LoopConfig) -> None:
        self.cfg = cfg
        self.haptic = cfg.setting == SETTING_HAPTIC
        # pressure builds from zero; the controller assumes on-target until told otherwise
        self.x = 0.0 if self.haptic else 1.0
        self.y = 0.0 if self.haptic else cfg.p_ref
        self.last_p = cfg.p_ref
        self.cmd_seq = 0
        self.fb_seq_seen = -1

    def command(self) -> Packet:
        """The command for the current sweep position (epoch)."""
        if self.haptic:
            pkt = Packet(kind=KIND_KINEMATIC, seq=self.cmd_seq, epoch=0, x=self.x, value=self.y)
        else:
            pkt = Packet(kind=KIND_KINEMATIC, seq=self.cmd_seq, epoch=int(self.x), x=0.0,
                         value=self.y)
        self.cmd_seq += 1
        return pkt

    def tick(self, feedback: Packet | None) -> Packet | None:
        """One controller iteration: take the feedback value if it is newer
        than any seen (else hold the last one), integrate the error, advance
        the sweep coordinate (epoch) by one and return the next command, or
        None once the sweep is done."""
        if feedback is not None and feedback.seq > self.fb_seq_seen:
            self.fb_seq_seen = feedback.seq
            self.last_p = feedback.value
        self.x += 1.0
        self.y = pi_update(self.y, self.last_p, self.cfg)
        if self.x > self.cfg.last_x:
            return None
        return self.command()


# The loop's arithmetic, each update written once; cfg is a LoopConfig or a
# batch's _Constants. IEEE 754 rounds Python floats and float64 rows alike, so
# each runs on either, bit for bit, and a batch of one runs on floats.

def pi_update(y, feedback, cfg):
    """The operator's PI update y + k_p * (p_ref - feedback)."""
    return y + cfg.k_p * (cfg.p_ref - feedback)


def plant(pos, y, cfg):
    """The step plant's signal for robot position y at sweep position pos
    (haptic: the coordinate; non-haptic: the epoch): gain * y, divided by
    k_2 once pos reaches the step index."""
    s = cfg.gain * y
    return s if pos < cfg.step_index else s / cfg.k_2


def lag_step(state, cmd, factor):
    """One step of the robot's first-order lag from state toward cmd."""
    return state + (cmd - state) * factor


def _lag_factors(dt, tau_ms: float) -> list[float]:
    """The lag factor 1 - exp(-dt / tau) for each time step dt (ms) of an
    array, flattened, from math.exp (np.exp can differ in the last bit)."""
    return [1.0 - math.exp(x) for x in (-np.asarray(dt) / tau_ms).ravel().tolist()]


def check_tau(tau_ms: float) -> None:
    """Refuse a lag time constant that LoopConfig refuses."""
    if not math.isfinite(tau_ms):
        raise ValueError(f"tau_ms must be finite, got {tau_ms}")
    if tau_ms < 0.0:
        raise NegativeTau(f"tau_ms = {tau_ms}")


def robot_lag(y_cmd: float, y_state: float, dt_ms: float, tau_ms: float) -> float:
    """First-order actuation lag; tau = 0 degenerates to pass-through."""
    check_tau(tau_ms)
    if tau_ms == 0.0:
        return y_cmd
    return lag_step(y_state, y_cmd, _lag_factors([dt_ms], tau_ms)[0])


def difference_trace(kp: float, k1: float, k2_pre: float, k2_post: float,
                     p_ref: float, step_l: int, n_steps: int,
                     y0: float = 0.0) -> list[tuple[int, float, float]]:
    """Brute-force iteration of the loop difference equation
    y_{l+1} = y_l (1 - kp k1 / k2_eff) + kp p_ref with the effective divisor
    switching at step_l. Accepts arbitrary (even unstable) gains; returns
    (l, y_l, signal_l) where signal_l = k1 y_l / k2_eff."""
    out = []
    y = y0
    for l in range(n_steps):
        k2_eff = k2_pre if l < step_l else k2_post
        sig = k1 * y / k2_eff
        out.append((l, y, sig))
        y = y + kp * (p_ref - sig)
    return out


def oracle_trace(cfg: LoopConfig, n_steps: int | None = None) -> list[tuple[int, float, float]]:
    """Closed-form reference trace for zero-loss channels with RTT < delta:
    (loop index, commanded y, logged signal) per loop. Independent of the
    event-driven runner."""
    n = cfg.sweep_len if n_steps is None else n_steps
    if cfg.setting == SETTING_HAPTIC:
        return difference_trace(cfg.k_p, cfg.k_1, 1.0, cfg.k_2, cfg.p_ref,
                                cfg.step_index, n, y0=0.0)
    # epochs count from 1, so loop index l carries epoch l + 1
    return difference_trace(cfg.k_p, 1.0, 1.0, cfg.k_2, cfg.p_ref,
                            cfg.step_index - 1, n, y0=cfg.p_ref)


class Robot:
    """Teleoperator actuator, sans-I/O: drops stale commands (sequence not
    newer than the newest seen) and follows fresh ones through robot_lag."""

    def __init__(self, tau_ms: float, y0: float = 0.0) -> None:
        self.tau_ms = tau_ms
        self.y = y0
        self.newest_seq = -1
        self.stale = 0
        self.last_t = 0.0

    def move(self, pkt: Packet, now: float) -> bool:
        """Apply a command arriving at `now` (ms); False if it was stale."""
        if pkt.seq <= self.newest_seq:
            self.stale += 1
            return False
        self.newest_seq = pkt.seq
        self.y = robot_lag(pkt.value, self.y, now - self.last_t, self.tau_ms)
        self.last_t = now
        return True


class Plant(Robot):
    """Reactive teleoperator: for each fresh command the robot moves, the
    step-injecting plant computes the controlled signal, the (t, x, y,
    signal) row is logged at the arrival time and the feedback packet is
    returned."""

    def __init__(self, cfg: LoopConfig) -> None:
        super().__init__(cfg.robot_tau_ms)
        self.cfg = cfg
        self.log: list[tuple[float, float, float, float]] = []

    def on_command(self, pkt: Packet, now: float) -> Packet | None:
        if not self.move(pkt, now):
            return None
        pos = pkt.x if self.cfg.setting == SETTING_HAPTIC else pkt.epoch
        sig = plant(pos, self.y, self.cfg)
        self.log.append((now, float(pos), pkt.value, sig))
        return Packet(kind=KIND_HAPTIC, seq=pkt.seq, epoch=pkt.epoch, x=pkt.x, value=sig)

    def curve(self) -> StepResponseCurve:
        return StepResponseCurve.from_rows(self.log, self.cfg)


@dataclass
class StepExperimentRecord:
    """Everything one run produced: the plant-side curve, the operator's
    send trace, and per-direction packet accounting of this run alone."""

    curve: StepResponseCurve
    operator_trace: list[tuple[float, float, float]]
    channel_stats: dict[str, DirectionStats] = field(default_factory=dict)


# a batch's loop constants under LoopConfig's names: floats for a batch of
# one, else rows (a scalar operand costs a conversion per numpy call)
_Constants = namedtuple("_Constants", "k_p gain k_2 p_ref step_index")


@dataclass
class StepBatch:
    """The sweeps of one batch of trials at one configuration: their curves,
    the sweep coordinates, and per trial (row) the send times, the
    commanded y of each send (k-major: ys[k, i]), and the arrival times of
    the commands and of the feedback on each command (NaN: none), from
    which a record counts its own packets by SimChannel._count's rule."""

    curves: CurveBatch
    sends: np.ndarray
    x: np.ndarray
    ys: np.ndarray
    fwd: np.ndarray
    bwd: np.ndarray

    def record(self, i: int) -> StepExperimentRecord:
        trace = list(zip(self.sends[i].tolist(), self.x.tolist(), self.ys[:, i].tolist()))
        # the feedback on command k sits in column k, so command order is its
        # send order too
        fwd, bwd, fresh = self.fwd[i], self.bwd[i], int(self.curves.lengths[i])
        cmds, answers = int(np.count_nonzero(fwd == fwd)), int(np.count_nonzero(bwd == bwd))
        stats = {FORWARD: DirectionStats(len(fwd), cmds, len(fwd) - cmds, cmds - fresh),
                 BACKWARD: DirectionStats(fresh, answers, fresh - answers,
                                          answers - int(np.count_nonzero(_fresh_mask(bwd))))}
        return StepExperimentRecord(curve=self.curves.curve(i), operator_trace=trace,
                                    channel_stats=stats)


def run_step_experiment(cfg: LoopConfig, channel) -> StepExperimentRecord:
    """Execute one full sweep over a simulated channel and return the
    record: run_step_batch over one channel."""
    return run_step_batch(cfg, ChannelRows([channel])).record(0)


def _feedback_sources(ticks: np.ndarray, step_of: np.ndarray, bwd: np.ndarray) -> np.ndarray:
    """The freshest feedback at each tick: src[k, r], the flat index into an
    ((n + 1) x rows) block of the command of row r whose feedback the
    operator holds when it computes command k + 1 (row n: none yet). Row r
    ticks at ticks[step_of[r]]. Feedback on command c is held from tick
    first_tick[c] on (n + 1: never; a NaN arrival sorts past every tick),
    so the command held at tick j is the largest c whose suffix minimum of
    first_tick is at most j, one less than the number of them."""
    rows, n = bwd.shape
    first_tick = np.empty((rows, n), dtype=np.intp)
    for step, at in enumerate(step_of[None] == np.arange(len(ticks))[:, None]):
        first_tick[at] = np.searchsorted(ticks[step], bwd[at])
    first_tick = np.maximum(np.arange(n) + 1, first_tick + 1, out=first_tick)
    reach = np.minimum.accumulate(first_tick[:, ::-1], axis=1)[:, ::-1]
    reach += np.arange(rows)[:, None] * (n + 2)
    held = np.bincount(reach.ravel(), minlength=rows * (n + 2)).reshape(rows, n + 2)
    held = np.cumsum(held, axis=1)[:, 1:n + 1] - 1  # held at ticks 1 .. n, -1: none
    return (np.where(held >= 0, held, n) * rows + np.arange(rows)[:, None]).T.copy()


def run_step_batch(cfg: LoopConfig, block, delta_ms: Sequence[float] | None = None) -> StepBatch:
    """Execute one full sweep over each row of a block, one trial per row:
    a ChannelRows (channels of any kinds) or an ImpairedBlock (no channel
    object), used only through len and one round_trips call. Row r runs
    at loop time delta_ms[r] (by default every row at cfg.delta_ms); the
    curves' config is cfg, whose other constants every row shares.

    Deterministic given (cfg, loop times, channel seeds). Each sweep is
    that of the loop on the virtual clock, where deliveries run ahead of a
    controller check at the same instant, the operator polls non-blocking
    with last-value hold, and stale packets (older sequence than the
    newest seen) are discarded on both sides. It is computed in two parts.

    (a) A value-free timing skeleton: one round_trips call of the block
    gives the arrival times of all its round trips.
    Command k leaves at tick k (the first at 0; tick j runs at T_j, the
    j-fold sum of the row's loop time, as the clock adds it), and the
    operator's final check at T_n ends the sweep.
    The plant takes the fresh commands in delivery order and answers each
    at its arrival; feedback on command i is visible at tick j when i < j
    and it arrived at or before T_j (a delivery at the instant of a check
    runs first, but the answer to the command sent by that check comes
    after it). The loop time enters only here, so the rows of each loop
    time find their ticks in one searchsorted.
    (b) The value recurrence, in command order, one loop body on rows with
    the trial as the array axis (a batch of one: on floats): pi_update from
    the freshest visible feedback; for a fresh command lag_step and plant.
    Feedback only ever reports on an earlier command, so its value is known
    when a tick needs it.
    """
    n, rows = cfg.sweep_len, len(block)
    if not rows:
        raise ValueError("a batch needs at least one row")
    deltas = [cfg.delta_ms] * rows if delta_ms is None else [float(d) for d in delta_ms]
    if len(deltas) != rows or not all(0.0 < d < math.inf for d in deltas):
        raise ValueError(f"need one positive, finite loop time per row, got {delta_ms}")
    # the distinct loop times, and each row's among them
    steps = {d: k for k, d in enumerate(dict.fromkeys(deltas))}
    step_of = np.array([steps[d] for d in deltas])
    ticks = np.add.accumulate(np.repeat([[d] for d in steps], n, axis=1), axis=1)  # T_1 .. T_n
    sends = np.zeros((len(steps), n))
    sends[:, 1:] = ticks[:, :-1]
    sends = sends[step_of]
    # the commands' arrival times, the fresh commands' mask and the
    # feedback's arrival times by command
    fwd, picked, bwd = block.round_trips(sends, cfg.packet_size_b, ticks[step_of, -1])
    # each row's fresh commands in send order, first in the row and NaN after
    # them: a row that lost no command is its own compaction, so only the
    # rows that lost one (lost) move their fresh commands to the front
    n_fresh = np.count_nonzero(picked, axis=1)
    lost = np.flatnonzero(n_fresh < n)
    lost_fresh, front = picked[lost], np.arange(n) < n_fresh[lost, None]

    def fresh_first(by_command: np.ndarray) -> np.ndarray:
        out = by_command.copy()
        moved = np.full(front.shape, np.nan)
        moved[front] = by_command[lost][lost_fresh]
        out[lost] = moved
        return out

    t_fresh = fresh_first(fwd)
    # sig[k, r]: the signal logged for command k of trial r; sig[n] holds
    # p_ref, the value the operator holds before any feedback
    sig = np.full((n + 1, rows), cfg.p_ref)
    flat = sig.reshape(-1)
    src = _feedback_sources(ticks, step_of, bwd)
    lags = takes = None
    if cfg.robot_tau_ms > 0.0:  # takes[k, r]: trial r's robot takes command k
        lags = np.array(_lag_factors(np.diff(t_fresh, axis=-1, prepend=0.0),
                                     cfg.robot_tau_ms)).reshape(rows, n)
        back = np.zeros(front.shape)  # the lost rows' factors in their commands' columns
        back[lost_fresh] = lags[lost][front]
        lags[lost] = back
        lags, takes = lags.T, picked.T
    if rows == 1:  # one trial runs on floats, indexed by lists
        as_row, pick = float, (lambda take, new, old: new if take else old)
        sig = flat = flat.tolist()
        src, lags, takes = (a if a is None else a.ravel().tolist() for a in (src, lags, takes))
    else:
        as_row, pick = (lambda v: np.full(rows, v)), np.where
    consts = _Constants(as_row(cfg.k_p), as_row(cfg.gain), as_row(cfg.k_2), as_row(cfg.p_ref),
                        cfg.step_index)
    haptic = cfg.setting == SETTING_HAPTIC
    first = 0 if haptic else 1  # command 0's sweep position: epochs count from 1
    y, robot = as_row(0.0 if haptic else cfg.p_ref), as_row(0.0)
    ys = []  # ys[k]: the commanded y of send k
    for k in range(n):
        ys.append(y)
        robot = y if lags is None else pick(takes[k], lag_step(robot, y, lags[k]), robot)
        sig[k] = plant(k + first, robot, consts)
        y = pi_update(y, flat[src[k]], consts)
    sig = np.asarray(sig).reshape(n + 1, rows)
    x = np.arange(first, n + first, dtype=float)
    ys = np.array(ys).reshape(n, rows)
    curves = CurveBatch(t=t_fresh, x=fresh_first(np.broadcast_to(x, (rows, n))),
                        y=fresh_first(ys.T), signal=fresh_first(sig[:n].T), lengths=n_fresh,
                        config=cfg)
    return StepBatch(curves=curves, sends=sends, x=x, ys=ys, fwd=fwd, bwd=bwd)


# --- real-socket mode -------------------------------------------------------

def serve_plant(endpoint: DatagramEndpoint, cfg: LoopConfig,
                deadline_ms: float | None = 5000.0) -> StepResponseCurve:
    """Teleoperator responder over datagrams: runs until the full sweep has
    been received (or the deadline passes with no traffic) and returns its
    log. Time stamps are wall-clock milliseconds from the first receive."""
    responder = Plant(cfg)
    t0 = None
    while True:
        try:
            pkt, addr = endpoint.recv_packet(deadline_ms)
        except SocketTimeout:
            if responder.log:
                break
            raise ExperimentTimeout("no command packet before deadline") from None
        if pkt.kind != KIND_KINEMATIC:
            continue
        now = time.perf_counter() * 1000.0
        if t0 is None:
            t0 = now
        fb = responder.on_command(pkt, now - t0)
        if fb is None:
            continue
        endpoint.send_packet(fb, to=addr)
        if responder.log[-1][1] >= cfg.last_x:
            break
    return responder.curve()


def run_socket_experiment(cfg: LoopConfig, endpoint: DatagramEndpoint,
                          deadline_ms: float = 5000.0) -> StepExperimentRecord:
    """Operator side over real datagrams: timer-paced sends, non-blocking
    receive with last-value hold. The plant-side curve lives with the remote
    responder; the returned record carries the operator trace and local
    packet accounting."""
    operator = Operator(cfg)
    trace: list[tuple[float, float, float]] = []
    received = 0
    start = time.perf_counter()
    last_rx = start

    def send(pkt: Packet) -> None:
        trace.append(((time.perf_counter() - start) * 1000.0, operator.x, operator.y))
        endpoint.send_packet(pkt)

    send(operator.command())
    next_tick = time.perf_counter()
    while True:
        next_tick += cfg.delta_ms / 1000.0
        lag = next_tick - time.perf_counter()
        if lag > 0:
            time.sleep(lag)
        fb = endpoint.poll_packet()
        if fb is not None and fb.seq > operator.fb_seq_seen:
            received += 1
            last_rx = time.perf_counter()
        elif (time.perf_counter() - last_rx) * 1000.0 > deadline_ms:
            raise ExperimentTimeout(f"no feedback for {deadline_ms} ms")
        pkt = operator.tick(fb)
        if pkt is None:
            break
        send(pkt)

    stats = {FORWARD: DirectionStats(sent=operator.cmd_seq),
             BACKWARD: DirectionStats(delivered=received)}
    return StepExperimentRecord(curve=StepResponseCurve.from_rows([], cfg),
                                operator_trace=trace, channel_stats=stats)
