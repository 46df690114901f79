"""The references of `tcpsbench.sickness`: the event-driven cybersickness
replay, kept for `measure_E`, and the per-line trajectory file reader, kept
for `read_trajectory_csv`.

This is `measure_E` as it ran before the replay became a timing skeleton
plus a value recurrence: every command, feedback and topology hop is an
event on the virtual clock, and the hand position comes from
`HandTrajectory.position_at` at each feedback arrival. Only the imports
changed, and the robot (stale-command filter and first-order lag) is
written out here instead of taken from `tcpsbench.loopsim`, so the two
share no lag arithmetic. tests/test_sickness_skeleton.py compares the two
bit for bit.

`read_trajectory_csv` is the reader as it was before files with a regular
body went to numpy's C tokenizer, unedited; tests/test_trajectory_csv.py
compares the two on random files.
"""

import math
from itertools import islice
from typing import Iterator

import numpy as np

from tcpsbench.clock import EventScheduler, PRIO_CONTROL
from tcpsbench.sickness import (
    ERROR_LIMIT_MM,
    TRAJ_HEADER_PREFIX,
    HandTrajectory,
    SicknessReport,
    TooShort,
    _histogram,
    predict_E,
)
from tcpsbench.transport import BACKWARD, FORWARD, KIND_HAPTIC, KIND_KINEMATIC, Packet


def measure_E(traj: HandTrajectory, channel, robot_tau_ms: float = 0.0,
              v_max_mps: float = 0.0, packet_size_b: int = 32) -> SicknessReport:
    """Replay the trajectory as position commands through a channel and
    measure E from the errors observed at every feedback arrival.

    The robot echoes its (optionally lagged) position for each fresh
    command; on arrival the error is the fed-back position minus the hand's
    interpolated position at that instant.
    """
    period_ms = 1000.0 / traj.fs_hz
    sched = EventScheduler()
    channel.bind(sched)

    robot_y, cmd_newest, last_t = float(traj.positions[0]), -1, 0.0
    errors: list[float] = []
    fb_newest = -1

    def on_feedback(pkt: Packet) -> None:
        nonlocal fb_newest
        if pkt.seq <= fb_newest:
            return
        fb_newest = pkt.seq
        hand_now = traj.position_at(sched.now)
        errors.append(pkt.value - hand_now)

    def on_command(pkt: Packet) -> None:
        nonlocal robot_y, cmd_newest, last_t
        if pkt.seq <= cmd_newest:
            return
        cmd_newest = pkt.seq
        cmd, dt = pkt.value, sched.now - last_t
        if robot_tau_ms == 0.0:
            robot_y = cmd
        else:
            robot_y = robot_y + (cmd - robot_y) * (1.0 - math.exp(-dt / robot_tau_ms))
        last_t = sched.now
        channel.send(BACKWARD, Packet(kind=KIND_HAPTIC, seq=pkt.seq, epoch=pkt.epoch,
                                      x=0.0, value=robot_y), packet_size_b, on_feedback)

    n = len(traj.positions)
    sent = [0]

    def send_next() -> None:
        k = sent[0]
        pkt = Packet(kind=KIND_KINEMATIC, seq=k, epoch=k, x=0.0, value=float(traj.positions[k]))
        channel.send(FORWARD, pkt, packet_size_b, on_command)
        sent[0] += 1
        if sent[0] < n:
            sched.schedule(sched.now + period_ms, send_next, PRIO_CONTROL)

    sched.schedule(0.0, send_next, PRIO_CONTROL)
    sched.run(stop=lambda: sent[0] >= n)
    # stop any cross-traffic sources, then let in-flight packets land
    channel.begin_drain()
    sched.run()

    if not errors:
        raise TooShort("no feedback arrived; cannot measure exposure")
    err = np.array(errors)
    measured = (100.0 * int(np.count_nonzero(np.abs(err) <= ERROR_LIMIT_MM))) / len(err)
    predicted = predict_E(traj, v_max_mps) if v_max_mps > 0.0 else None
    return SicknessReport(
        v_max_mps=v_max_mps,
        predicted_e_pct=predicted,
        measured_e_pct=measured,
        error_histogram=_histogram(err),
        n_samples=len(err),
    )


def read_trajectory_csv(path: str, fs_hz: float | None = None) -> HandTrajectory:
    """Accepts `t_s,pos_mm` or bare `pos_mm` rows, blank lines and `#`
    comments; the sampling rate comes from the `# fs_hz:` header unless
    given explicitly, else from the first two `t_s` values. The file is read
    at once and its positions converted to one array; time stamps other
    than those two, and fields past the second, are not read."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh.read().splitlines()]
    if fs_hz is None:
        header = next((line for line in lines if line.startswith(TRAJ_HEADER_PREFIX)), None)
        if header is not None:
            fs_hz = float(header[len(TRAJ_HEADER_PREFIX):])

    def rows() -> Iterator[list[str]]:
        fields = (line.split(",", 2) for line in lines if line and line[0] != "#")
        return (r for r in fields if r[0] not in ("t_s", "pos_mm"))

    positions = np.array([r[1] if len(r) > 1 else r[0] for r in rows()], dtype=float)
    if fs_hz is None:
        times = [float(r[0]) for r in islice((r for r in rows() if len(r) > 1), 2)]
        if len(times) < 2 or times[1] == times[0]:
            raise ValueError("sampling rate not in header and not derivable")
        fs_hz = 1.0 / (times[1] - times[0])
    return HandTrajectory(fs_hz=fs_hz, positions=positions, source=path)
