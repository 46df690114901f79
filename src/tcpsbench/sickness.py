"""Cybersickness exposure: predicted and measured from hand trajectories.

Exposure E is the percentage of operation time the error between the
operator's hand and the fed-back robot position stays within 1 mm. Given a
hand-speed ceiling, E can be predicted straight from the trajectory's
velocity histogram; replaying the same trajectory through a channel (with
an optional robot actuation lag) measures it. Like a step run, the replay
is a timing skeleton plus a value recurrence: the arrival times of all
commands and answers come from the channel's round trip, and the robot lag
and the errors follow from those times.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import islice
from random import Random
from typing import Iterator

import numpy as np

from .core import TcpsbenchError, check_packet_size, check_seed
from .loopsim import _lag_factors, check_tau, lag_step, last_tick
from .transport import _fresh_mask

ERROR_LIMIT_MM = 1.0
HIST_BIN_MM = 0.1
RANGE_MM = 250.0  # synthetic hands stay within +/- this of the start


class TooShort(TcpsbenchError):
    pass


@dataclass
class HandTrajectory:
    """1-D hand positions (mm) sampled at a fixed rate."""

    fs_hz: float
    positions: np.ndarray
    source: str = "synthetic"

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        # the sampling period, 1000 / fs_hz ms, must be finite too; NaN fails
        if not (0.0 < self.fs_hz < math.inf and 1000.0 / self.fs_hz < math.inf):
            raise ValueError(f"sampling frequency must be positive and finite, with a finite "
                             f"period 1000 / fs_hz ms, got {self.fs_hz}")
        if len(self.positions) < 2:
            raise TooShort("trajectory needs at least 2 samples")
        if not math.isfinite(last_tick(1000.0 / self.fs_hz, len(self.positions) - 1)):
            raise ValueError(f"sampling frequency fs_hz {self.fs_hz!r} puts the last of "
                             f"{len(self.positions)} samples past the largest float time")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("positions must be finite")

    def velocities_mps(self) -> np.ndarray:
        """Per-step speeds in m/s (mm * Hz / 1000)."""
        return np.diff(self.positions) * self.fs_hz / 1000.0

    def position_at(self, t_ms: float) -> float:
        """Linear interpolation of the hand position at an arbitrary time,
        clamped to the first and last samples; the same arithmetic as
        np.interp over the sample indices, at O(1) per call."""
        idx = t_ms / 1000.0 * self.fs_hz
        pos = self.positions
        if idx <= 0.0:
            return float(pos[0])
        j = int(idx)
        if j >= len(pos) - 1:
            return float(pos[-1])
        lo = float(pos[j])
        if idx == j:
            return lo
        return (float(pos[j + 1]) - lo) * (idx - j) + lo


def predict_E(traj: HandTrajectory, v_max_mps: float) -> float:
    """Share of trajectory steps whose speed stays under the ceiling, in
    percent. Exact by construction on synthetic trajectories."""
    v = np.abs(traj.velocities_mps())
    if len(v) < 1:
        raise TooShort("trajectory holds no velocity steps")
    # integer count over integer total keeps constructed fractions exact
    return (100.0 * int(np.count_nonzero(v < v_max_mps))) / len(v)


@dataclass
class SicknessReport:
    v_max_mps: float
    predicted_e_pct: float | None
    measured_e_pct: float
    error_histogram: list[tuple[float, float]]  # (bin left edge mm, % of samples)
    n_samples: int = 0

    def summary(self) -> str:
        lines = [
            f"v_max_mps: {self.v_max_mps}",
            f"predicted_E_pct: {self.predicted_e_pct}",
            f"measured_E_pct: {self.measured_e_pct}",
            f"n_samples: {self.n_samples}",
        ]
        return "\n".join(lines)


def _histogram(errors: np.ndarray) -> list[tuple[float, float]]:
    """0.1 mm bins covering the observed error range; masses in percent
    summing to 100. The edges are rounded float multiples of the bin width,
    so an extreme error can fall just outside them: it counts in the
    outermost bin."""
    if len(errors) == 0:
        return []
    lo = math.floor(float(np.min(errors)) / HIST_BIN_MM) * HIST_BIN_MM
    hi = math.ceil(float(np.max(errors)) / HIST_BIN_MM) * HIST_BIN_MM
    n_bins = max(1, round((hi - lo) / HIST_BIN_MM))
    edges = lo + np.arange(n_bins + 1) * HIST_BIN_MM
    counts, _ = np.histogram(np.clip(errors, edges[0], edges[-1]), bins=edges)
    pct = counts / len(errors) * 100.0
    return [(float(edges[i]), float(pct[i])) for i in range(n_bins)]


def _lagged(y0: float, cmds: np.ndarray, t: np.ndarray, tau_ms: float) -> np.ndarray:
    """The robot's positions after it takes commands cmds at times t (ms),
    through its first-order lag from y0 at time 0. A replay's time steps
    take a few distinct values, so the lag factor is computed once per
    value. The recurrence reads the commands and factors through
    memoryviews and np.fromiter stores each position as it comes, so no
    Python float per sample is kept."""
    steps, at = np.unique(np.diff(t, prepend=0.0), return_inverse=True)
    factors = np.array(_lag_factors(steps, tau_ms))[at]

    def run(y: float) -> Iterator[float]:
        for cmd, factor in zip(memoryview(cmds), memoryview(factors)):
            y = lag_step(y, cmd, factor)
            yield y

    return np.fromiter(run(y0), float, count=len(factors))


def measure_E(traj: HandTrajectory, channel, robot_tau_ms: float = 0.0,
              v_max_mps: float = 0.0, packet_size_b: int = 32) -> SicknessReport:
    """Replay the trajectory as position commands through a channel and
    measure E from the errors observed at every feedback arrival.

    Command k leaves after k of the trajectory's sampling periods (summed
    as the clock adds them) and carries hand sample k. The robot takes the
    fresh commands in delivery order, moves through its optional first-order
    lag (loopsim's lag_step, from hand sample 0 at time 0) and echoes its
    position at once; a feedback counts when it is newer than every one
    delivered before it, and its error is the fed-back position minus the
    hand's interpolated position at its arrival. The arrival times come
    first, from the same value-free round trip as a step run's, which ends
    with the last send; the values follow from them. A negative
    robot_tau_ms raises NegativeTau; a non-finite one, or a packet_size_b
    that is not an int of at least 1, raises ValueError.
    """
    check_tau(robot_tau_ms)
    check_packet_size(packet_size_b)
    pos = traj.positions
    n = len(pos)
    sends = np.full(n, 1000.0 / traj.fs_hz)
    sends[0] = 0.0
    np.add.accumulate(sends, out=sends)
    fwd, picked, bwd = channel.round_trip(sends, packet_size_b, float(sends[-1]))

    robot_y = pos[picked]
    if robot_tau_ms > 0.0:
        robot_y = _lagged(float(pos[0]), robot_y, fwd[picked], robot_tau_ms)
    # the answer to command k sits in column k, so its send index orders sequence too
    newest = _fresh_mask(bwd)
    hand = np.interp(bwd[newest] / 1000.0 * traj.fs_hz, np.arange(n), pos)
    err = robot_y[newest[picked]] - hand

    if not len(err):
        raise TooShort("no feedback arrived; cannot measure exposure")
    measured = (100.0 * int(np.count_nonzero(np.abs(err) <= ERROR_LIMIT_MM))) / len(err)
    predicted = predict_E(traj, v_max_mps) if v_max_mps > 0.0 else None
    return SicknessReport(
        v_max_mps=v_max_mps,
        predicted_e_pct=predicted,
        measured_e_pct=measured,
        error_histogram=_histogram(err),
        n_samples=len(err),
    )


def compliant_trajectory(fs_hz: float, n_steps: int, v_max_mps: float, fraction: float,
                         seed: int) -> HandTrajectory:
    """Trajectory with an exact share of steps below the speed ceiling.

    Hand motion is smooth, so both the speed class and the travel direction
    persist over up to three slow and three fast blocks, alternating
    (direction reverses only at the +/- RANGE_MM walls); slow-block
    speeds draw inside (0.2, 0.6) * v_max, fast blocks inside (1.8, 2.6) *
    v_max. The below-ceiling step count is exactly round(fraction * n_steps).
    """
    if not 0.0 < fs_hz < math.inf:  # NaN fails too
        raise ValueError(f"sampling frequency must be positive and finite, got {fs_hz}")
    if n_steps < 1:
        raise ValueError("a trajectory needs at least one step")
    if not 0.0 < v_max_mps < math.inf:  # a zero ceiling would stand the hand still
        raise ValueError(f"speed ceiling must be positive and finite, got {v_max_mps}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    check_seed(seed)
    rng = Random(seed)
    n_slow = round(fraction * n_steps)
    n_fast = n_steps - n_slow

    def split(total: int) -> list[int]:
        """Up to three near-equal block sizes summing to total."""
        parts = min(3, total)
        if parts == 0:
            return []
        base, extra = divmod(total, parts)
        return [base + (1 if i < extra else 0) for i in range(parts)]

    slow, fast = split(n_slow), split(n_fast)
    blocks = []
    for i in range(3):
        blocks += [(size, (0.2, 0.6)) for size in slow[i:i + 1]]
        blocks += [(size, (1.8, 2.6)) for size in fast[i:i + 1]]

    pos = [0.0]
    for size, band in blocks:
        direction = 1.0 if rng.random() < 0.5 else -1.0
        for _ in range(size):
            speed = rng.uniform(band[0], band[1]) * v_max_mps
            step = speed * 1000.0 / fs_hz * direction
            nxt = pos[-1] + step
            if abs(nxt) > RANGE_MM:
                direction = -direction
                nxt = pos[-1] - step
            pos.append(nxt)
    return HandTrajectory(fs_hz=fs_hz, positions=np.array(pos),
                          source=f"synthetic(seed={seed},fraction={fraction})")


TRAJ_HEADER_PREFIX = "# fs_hz:"


def write_trajectory_csv(traj: HandTrajectory, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"{TRAJ_HEADER_PREFIX} {traj.fs_hz!r}\n")
        w = csv.writer(fh)
        w.writerow(["t_s", "pos_mm"])
        for i, p in enumerate(traj.positions):
            w.writerow([repr(i / traj.fs_hz), repr(float(p))])


_LABELS = ("t_s", "pos_mm")
# a comment row holds a "#" and a label row an "s"; no number holds either
_ROW_MARKS = "#s"
# line breaks of str.splitlines() that text mode leaves inside a line
_OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def read_trajectory_csv(path: str, fs_hz: float | None = None) -> HandTrajectory:
    """Accepts `t_s,pos_mm` or bare `pos_mm` rows, blank lines and `#`
    comments; the sampling rate comes from the `# fs_hz:` header unless
    given explicitly, else from the first two `t_s` values. Fields past the
    second are not used.

    Every file `write_trajectory_csv` writes is a leading block of headers,
    comments, blank lines and labels, then a regular body: numeric rows
    with one number of fields, with nothing between them but empty lines.
    numpy's C tokenizer reads such a body. A two-field body's times are
    converted only when the rate must come from them: with the rate given
    or in the header, numpy splits each row but converts only its position,
    unless a `#` or an `s` in the body could mark a comment or label row.
    Every other file is read line by line: a comment, label or
    whitespace-only line among the rows, bare and timed rows mixed, a field
    numpy does not read as a number, or a line break that only
    `str.splitlines` knows. The two readers give the same rate and
    positions, bit for bit, where both read a file, and the line-by-line
    reader raises every error."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    regular = _read_regular(text, fs_hz)
    fs_hz, positions = regular if regular is not None else _read_lines(text, fs_hz)
    return HandTrajectory(fs_hz=fs_hz, positions=positions, source=path)


def _read_regular(text: str, fs_hz: float | None) -> tuple[float, np.ndarray] | None:
    """The rate and positions of a file with a regular body, else None."""
    if any(c in text for c in _OTHER_BREAKS):
        return None
    header, start = None, 0
    while True:
        end = text.find("\n", start)
        line = text[start:end if end >= 0 else len(text)].strip()
        if line and line[0] != "#" and line.split(",", 2)[0] not in _LABELS:
            break
        if header is None and line.startswith(TRAJ_HEADER_PREFIX):
            header = line
        if end < 0:
            return None
        start = end + 1
    if fs_hz is None and header is not None:
        fs_hz = float(header[len(TRAJ_HEADER_PREFIX):])
    # with the rate known, a two-field body's times are split off but never
    # converted; a comment or label row would then pass for data, so a body
    # holding either is converted whole
    positions_only = (fs_hz is not None and line.count(",") == 1
                      and all(text.find(mark, start) < 0 for mark in _ROW_MARKS))
    try:
        rows = np.loadtxt(io.StringIO(text[start:]), delimiter=",", comments=None,
                          quotechar=None, usecols=1 if positions_only else None, ndmin=2)
    except ValueError:
        return None
    if positions_only:
        return fs_hz, rows[:, 0]  # one column: contiguous already
    if fs_hz is None:
        if rows.shape[1] < 2 or len(rows) < 2 or rows[1, 0] == rows[0, 0]:
            return None
        fs_hz = 1.0 / (float(rows[1, 0]) - float(rows[0, 0]))
    return fs_hz, rows[:, 1 if rows.shape[1] > 1 else 0].copy()


def _read_lines(text: str, fs_hz: float | None) -> tuple[float, np.ndarray]:
    """The reader of every file: strips and splits each line in Python."""
    lines = [line.strip() for line in text.splitlines()]
    if fs_hz is None:
        header = next((line for line in lines if line.startswith(TRAJ_HEADER_PREFIX)), None)
        if header is not None:
            fs_hz = float(header[len(TRAJ_HEADER_PREFIX):])

    def rows() -> Iterator[list[str]]:
        fields = (line.split(",", 2) for line in lines if line and line[0] != "#")
        return (r for r in fields if r[0] not in _LABELS)

    positions = np.array([r[1] if len(r) > 1 else r[0] for r in rows()], dtype=float)
    if fs_hz is None:
        times = [float(r[0]) for r in islice((r for r in rows() if len(r) > 1), 2)]
        if len(times) < 2 or times[1] == times[0]:
            raise ValueError("sampling rate not in header and not derivable")
        fs_hz = 1.0 / (times[1] - times[0])
    return fs_hz, positions


def histogram_csv(report: SicknessReport) -> str:
    lines = ["bin_left_mm,share_pct"]
    for edge, pct in report.error_histogram:
        lines.append(f"{edge!r},{pct!r}")
    return "\n".join(lines) + "\n"
