"""Shared domain types, step-response metric extraction and RTT budgets.

A step-response curve is the teleoperator-side log of the controlled signal
(contact pressure in the haptic setting, robot y'-coordinate in the
non-haptic one). The quality of one experiment is summarised by the timing
marks t0/t1/t2, the rise time, overshoot and steady-state error, and a
good/bad verdict against configurable limits.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

LOOP_KVL = "kvl"  # kinematic-video loop
LOOP_KHL = "khl"  # kinematic-haptic loop
LOOP_KAL = "kal"  # kinematic-audio loop

SETTING_HAPTIC = "haptic"
SETTING_NONHAPTIC = "non-haptic"

# One-way video budget (ms) plus the per-modality sync error relative to video.
_VIDEO_BUDGET_MS = 1.0
_SYNC_ERROR_MS = {"video": 0.0, "audio": 45.0, "haptic": 125.0}


class TcpsbenchError(Exception):
    """Base class for all toolkit errors."""


class MalformedCurve(TcpsbenchError):
    """Curve has fewer than two samples or a non-monotone time axis."""


class NoStepDetected(TcpsbenchError):
    """The signal never crosses the lower detection band downward."""


class UnknownModality(TcpsbenchError):
    pass


class NonPositiveInput(TcpsbenchError):
    pass


@dataclass(frozen=True)
class GoodnessLimits:
    overshoot_max_pct: float = 20.0
    sse_max_pct: float = 10.0

    def __post_init__(self) -> None:
        for v in (self.overshoot_max_pct, self.sse_max_pct):
            if not 0.0 < v < 100.0:
                raise ValueError(f"goodness limit {v} outside (0, 100)")


DEFAULT_LIMITS = GoodnessLimits()


@dataclass
class StepResponseCurve:
    """Ordered plant log for one experiment run, one float64 column per
    quantity. t: arrival time, ms. x: operator sweep coordinate in cm
    (haptic) or epoch index (non-haptic). y: commanded coordinate carried by
    the packet that produced the entry (diagnostic). signal: controlled
    quantity in plant units."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    signal: np.ndarray
    config: "object"  # LoopConfig; kept loose to avoid an import cycle

    def __post_init__(self) -> None:
        for name in ("t", "x", "y", "signal"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))

    @classmethod
    def from_rows(cls, rows: list, config: "object") -> "StepResponseCurve":
        """Columns from (t, x, y, signal) rows."""
        return cls(*np.array(rows, dtype=float).reshape(-1, 4).T.copy(), config=config)


@dataclass
class CurveBatch:
    """The step-response curves of one batch of trials at one configuration,
    one row each: the columns of StepResponseCurve as float64 (trials x
    width) blocks, row i holding its lengths[i] samples first and NaN after
    them."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    signal: np.ndarray
    lengths: np.ndarray
    config: "object"

    @classmethod
    def from_curves(cls, curves: list[StepResponseCurve]) -> "CurveBatch":
        """The rows of curves that share their config."""
        lengths = np.array([len(c.t) for c in curves])
        width = int(lengths.max()) if len(curves) else 0
        blocks = []
        for name in ("t", "x", "y", "signal"):
            block = np.full((len(curves), width), np.nan)
            for row, c in zip(block, curves):
                row[:len(c.t)] = getattr(c, name)
            blocks.append(block)
        return cls(*blocks, lengths=lengths, config=curves[0].config)

    def curve(self, i: int) -> StepResponseCurve:
        m = self.lengths[i]
        return StepResponseCurve(self.t[i, :m].copy(), self.x[i, :m].copy(),
                                 self.y[i, :m].copy(), self.signal[i, :m].copy(), self.config)


@dataclass(frozen=True)
class CurveMetrics:
    """Extracted step-response statistics.

    t1/t2/t_r are None when the curve never rises back through the bands
    (a not-good curve). Undershoot and settling time are diagnostics only
    and never gate the verdict.
    """

    t0: float
    t1: float | None
    t2: float | None
    t_r: float | None
    overshoot_pct: float
    steady_state_error_pct: float | None
    delta_y: float | None
    is_good: bool
    undershoot_pct: float = 0.0
    settling_ms: float | None = None


@dataclass(frozen=True)
class RttBudget:
    modality: str
    max_rtt_ms: float


def rtt_budget(modality: str) -> RttBudget:
    """Round-trip budget for a control loop, from the sync-error table."""
    try:
        sync = _SYNC_ERROR_MS[modality]
    except KeyError:
        raise UnknownModality(f"unknown feedback modality: {modality!r}") from None
    return RttBudget(modality=modality, max_rtt_ms=_VIDEO_BUDGET_MS + sync)


def max_rtt_kvl(hand_speed_mps: float, zoom: float = 1.0) -> float:
    """Largest kinematic-video RTT (ms) keeping the perceived hand/robot
    error below 1 mm for the given hand speed and display zoom factor."""
    if hand_speed_mps <= 0.0 or zoom <= 0.0:
        raise NonPositiveInput("hand speed and zoom must be positive")
    if zoom > 1.0:
        raise NonPositiveInput("zoom factor must be <= 1")
    return 1.0 / (hand_speed_mps * zoom)


_CRITICAL_LOOPS = {
    ("high", "high"): frozenset({LOOP_KVL, LOOP_KHL}),
    ("high", "low"): frozenset({LOOP_KVL}),
    ("medium", "high"): frozenset({LOOP_KHL}),
}


def critical_loops(hand_speed_class: str, stiffness_class: str) -> frozenset[str]:
    """Which control loops must be benchmarked for a deployment scenario.

    Falls back to the kinematic-video loop when no tabulated case applies.
    """
    return _CRITICAL_LOOPS.get((hand_speed_class, stiffness_class), frozenset({LOOP_KVL}))


def _cross_up(t: np.ndarray, sig: np.ndarray, start: int, level: float) -> float | None:
    """Interpolated time of the first upward crossing of `level` at index
    > start. Returns None if the signal never reaches the level."""
    hits = np.flatnonzero((sig[start + 1:] >= level) & (sig[start:-1] < level))
    if not len(hits):
        return None
    j = start + 1 + int(hits[0])
    frac = (level - sig[j - 1]) / (sig[j] - sig[j - 1])
    return float(t[j - 1] + frac * (t[j] - t[j - 1]))


def extract_metrics(curve: StepResponseCurve, limits: GoodnessLimits = DEFAULT_LIMITS) -> CurveMetrics:
    """Locate the step and measure rise time, overshoot and steady-state error.

    The injected step is a discontinuity, so t0 snaps to the first logged
    sample at or below the 10% band; the recovery crossings t1/t2 are located
    by linear interpolation between samples, which keeps the rise time
    insensitive to sampling phase. The steady-state window is the final 10%
    of the post-t2 duration.
    """
    t, sig = curve.t, curve.signal
    n = len(t)
    if n < 2:
        raise MalformedCurve(f"curve needs at least 2 samples, got {n}")
    if not np.all(np.diff(t) > 0.0):
        raise MalformedCurve("sample times must be strictly increasing")
    if not np.all(np.isfinite(sig)):
        raise MalformedCurve("signal contains non-finite values")

    p_ref = float(curve.config.p_ref)
    base = p_ref / float(curve.config.k_2)  # the signal right after the step
    span = p_ref - base
    l10, l90 = base + 0.1 * span, base + 0.9 * span

    down = np.flatnonzero((sig[1:] <= l10) & (sig[:-1] > l10))
    if not len(down):
        raise NoStepDetected("signal never crosses the lower band downward")
    step_idx = int(down[0]) + 1
    t0 = float(t[step_idx])

    t1 = _cross_up(t, sig, step_idx, l10)
    t2 = _cross_up(t, sig, step_idx, l90)

    post = sig[step_idx:]
    peak = float(np.max(post))
    trough = float(np.min(post))
    overshoot_pct = max(0.0, peak - p_ref) / span * 100.0
    undershoot_pct = max(0.0, base - trough) / span * 100.0

    t_r = sse_pct = delta_y = settling_ms = None
    if t2 is not None:
        t_r = t2 - t0
        t_end = float(t[-1])
        win_start = t2 + 0.9 * max(0.0, t_end - t2)
        window = sig[t >= win_start]
        sse_pct = abs(float(np.mean(window)) - p_ref) / span * 100.0

        delta_y = abs(float(np.interp(t2, t, curve.y)) - float(np.interp(t0, t, curve.y)))

        # the curve settles at the sample after the last one outside the 2% band
        outside = np.flatnonzero(np.abs(sig - p_ref) > 0.02 * span)
        settle_idx = max(step_idx, int(outside[-1]) + 1 if len(outside) else 0)
        if settle_idx < n:
            settling_ms = float(t[settle_idx]) - t0

    return CurveMetrics(
        t0=t0, t1=t1, t2=t2, t_r=t_r,
        overshoot_pct=overshoot_pct,
        steady_state_error_pct=sse_pct,
        delta_y=delta_y,
        is_good=_is_good(t2, sse_pct, overshoot_pct, limits),
        undershoot_pct=undershoot_pct,
        settling_ms=settling_ms,
    )


# outcomes of extract_metrics_batch, one per row
GOOD, NOT_GOOD, NO_STEP, MALFORMED = range(4)


def _max0(v: np.ndarray) -> np.ndarray:
    """Python's max(0.0, v) per element: v where v > 0.0, else 0.0 (NaN too)."""
    return np.where(v > 0.0, v, 0.0)


@np.errstate(invalid="ignore", over="ignore")  # an infinite last time stamp, as extract_metrics takes it
def extract_metrics_batch(batch: CurveBatch,
                          limits: GoodnessLimits = DEFAULT_LIMITS) -> tuple[np.ndarray, np.ndarray]:
    """extract_metrics' verdict on every row of a batch at once: each row's
    outcome (GOOD; NOT_GOOD; NO_STEP where extract_metrics raises
    NoStepDetected; MALFORMED where it raises MalformedCurve) and its rise
    time, NaN unless GOOD, bit for bit those of extract_metrics row by row:
    every value it computes comes from the same float operations, and the
    steady-state window mean sums each window with np.add's own (pairwise)
    order for its length, as np.mean does."""
    t, sig, lengths = batch.t, batch.signal, batch.lengths
    rows, width = t.shape
    outcome = np.full(rows, NOT_GOOD, dtype=np.int8)
    t_r = np.full(rows, np.nan)
    if width < 2:  # no row has two samples
        outcome[:] = MALFORMED
        return outcome, t_r
    # every comparison with the NaN after a row's samples is False
    cols = np.arange(width)
    prev, cur = sig[:, :-1], sig[:, 1:]
    malformed = (lengths < 2) | (np.count_nonzero(t[:, 1:] > t[:, :-1], axis=1) != lengths - 1) \
        | (np.count_nonzero(np.isfinite(sig), axis=1) != lengths)

    p_ref = float(batch.config.p_ref)
    base = p_ref / float(batch.config.k_2)
    span = p_ref - base
    l10, l90 = base + 0.1 * span, base + 0.9 * span
    down = (cur <= l10) & (prev > l10)
    stepped = down.any(axis=1) & ~malformed
    outcome[~stepped] = NO_STEP
    outcome[malformed] = MALFORMED
    step = down.argmax(axis=1) + 1
    up = (cur >= l90) & (prev < l90) & (cols[1:] > step[:, None])
    r = np.flatnonzero(up.any(axis=1) & stepped)  # the rows with t2
    if not len(r):
        return outcome, t_r
    j = up[r].argmax(axis=1) + 1
    tr, sr, k = t[r], sig[r], np.arange(len(r))
    s0, s1, ta, tb = sr[k, j - 1], sr[k, j], tr[k, j - 1], tr[k, j]
    t2 = ta + (l90 - s0) / (s1 - s0) * (tb - ta)
    t0 = tr[k, step[r]]
    peak = np.fmax.reduce(np.where(cols >= step[r, None], sr, -np.inf), axis=1)  # NaN: none
    overshoot_pct = _max0(peak - p_ref) / span * 100.0
    t_end = tr[k, lengths[r] - 1]
    win_start = t2 + 0.9 * _max0(t_end - t2)
    start = np.count_nonzero(tr < win_start[:, None], axis=1)  # t rises: the window is a suffix
    size = lengths[r] - start
    mean = np.empty(len(r))
    for n in set(size.tolist()):
        at = np.flatnonzero(size == n)
        window = sr[at[:, None], start[at, None] + np.arange(n)]
        mean[at] = np.add.reduce(window, axis=1) / n
    sse_pct = np.abs(mean - p_ref) / span * 100.0
    good = (overshoot_pct <= limits.overshoot_max_pct) & (sse_pct <= limits.sse_max_pct)
    outcome[r[good]] = GOOD
    t_r[r[good]] = (t2 - t0)[good]
    return outcome, t_r


def _is_good(t2: float | None, sse_pct: float | None, overshoot_pct: float,
             limits: GoodnessLimits) -> bool:
    """A curve is good when it rose back (t2 defined) and both overshoot and
    steady-state error sit within the limits."""
    if t2 is None or sse_pct is None:
        return False
    return overshoot_pct <= limits.overshoot_max_pct and sse_pct <= limits.sse_max_pct


def classify_good(metrics: CurveMetrics, limits: GoodnessLimits = DEFAULT_LIMITS) -> bool:
    """The good/bad verdict of extracted metrics (see _is_good)."""
    return _is_good(metrics.t2, metrics.steady_state_error_pct, metrics.overshoot_pct, limits)


CURVE_CSV_HEADER = ["t_ms", "x", "y", "signal"]


def write_curve_csv(curve: StepResponseCurve, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CURVE_CSV_HEADER)
        for row in zip(curve.t.tolist(), curve.x.tolist(), curve.y.tolist(), curve.signal.tolist()):
            w.writerow([repr(v) for v in row])


def read_curve_csv(path: str, config: "object") -> StepResponseCurve:
    with open(path, newline="", encoding="utf-8") as fh:
        r = csv.reader(fh)
        header = next(r)
        if [h.strip() for h in header] != CURVE_CSV_HEADER:
            raise MalformedCurve(f"unexpected curve header: {header}")
        rows = [[float(v) for v in row] for row in r if row]
    return StepResponseCurve.from_rows(rows, config)
