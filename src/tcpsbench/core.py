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


def check_seed(seed: int) -> None:
    """Refuse a negative seed: Random() seeds with abs(), so -s would replay s's streams."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def check_packet_size(size_b: int) -> None:
    """Refuse a packet size that is not an int of at least 1 (bool is not)."""
    if isinstance(size_b, bool) or not isinstance(size_b, int) or size_b < 1:
        raise ValueError(f"packet_size_b must be an int >= 1, got {size_b!r}")


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


def _bands(config: "object") -> tuple[float, float, float, float, float]:
    """p_ref, the signal right after the step, their span, and the 10% and 90% levels.
    The bands assume the step lowers the signal: a span not above 0
    (p_ref <= 0) raises ValueError."""
    p_ref = float(config.p_ref)
    base = p_ref / float(config.k_2)
    span = p_ref - base
    if not span > 0.0:
        raise ValueError(f"step-response bands need p_ref > 0, got {p_ref}")
    return p_ref, base, span, base + 0.1 * span, base + 0.9 * span


def _max0(v: np.ndarray) -> np.ndarray:
    """Python's max(0.0, v) per element: v where v > 0.0, else 0.0 (NaN too)."""
    return np.where(v > 0.0, v, 0.0)


@np.errstate(divide="ignore", invalid="ignore")  # a row without a crossing divides by anything
def _cross_up(t: np.ndarray, sig: np.ndarray, after: np.ndarray,
              level: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row: whether the signal crosses level upward at an index > after,
    and the time of the first such crossing, interpolated between its two
    samples (a meaningless number where there is none)."""
    up = (sig[:, 1:] >= level) & (sig[:, :-1] < level) \
        & (np.arange(1, t.shape[1]) > after[:, None])
    j, k = up.argmax(axis=1) + 1, np.arange(len(t))
    s0, s1, ta, tb = sig[k, j - 1], sig[k, j], t[k, j - 1], t[k, j]
    return up.any(axis=1), ta + (level - s0) / (s1 - s0) * (tb - ta)


@np.errstate(all="ignore")  # a malformed row computes numbers never read
def _measure(batch: "CurveBatch") -> tuple[np.ndarray, ...]:
    """The step-response measures of every row of a batch: malformed (fewer
    than two samples, times not strictly increasing or a non-finite
    signal), stepped (not malformed, and the signal crosses the 10% level
    downward), the step index (the sample after that crossing), rose and t2
    (the first upward crossing of the 90% level after the step), the
    overshoot and the steady-state error (the error of the mean over the
    final 10% of the post-t2 duration; NaN unless stepped and rose). The
    step, t2 and overshoot of a row without a step mean nothing. The window
    mean sums each window with np.add's own (pairwise) order for its
    length, as np.mean does."""
    t, sig, lengths = batch.t, batch.signal, batch.lengths
    # every comparison with the NaN after a row's samples is False
    malformed = (lengths < 2) | ((t[:, 1:] > t[:, :-1]).sum(axis=1) != lengths - 1) \
        | (np.isfinite(sig).sum(axis=1) != lengths)
    p_ref, _, span, l10, l90 = _bands(batch.config)
    down = (sig[:, 1:] <= l10) & (sig[:, :-1] > l10)
    stepped = down.any(axis=1) & ~malformed
    if not stepped.any():  # nothing more to measure, and no sample to search below width 2
        nan = np.full(len(t), np.nan)
        return malformed, stepped, np.zeros(len(t), dtype=int), stepped, nan, nan, nan
    step = down.argmax(axis=1) + 1
    rose, t2 = _cross_up(t, sig, step, l90)
    peak = np.fmax.reduce(np.where(np.arange(t.shape[1]) >= step[:, None], sig, -np.inf), axis=1)
    overshoot_pct = _max0(peak - p_ref) / span * 100.0
    sse_pct = np.full(len(t), np.nan)
    r = np.flatnonzero(rose & stepped)
    if len(r):
        tr, t2r, last = t[r], t2[r], lengths[r] - 1
        win_start = t2r + 0.9 * _max0(tr[np.arange(len(r)), last] - t2r)
        size = (tr >= win_start[:, None]).sum(axis=1)  # t rises: the window is a suffix
        for n in set(size.tolist()):
            at = np.flatnonzero(size == n)
            window = sig[r[at, None], (last - size + 1)[at, None] + np.arange(n)]
            sse_pct[r[at]] = np.abs(np.add.reduce(window, axis=1) / n - p_ref) / span * 100.0
    return malformed, stepped, step, rose, t2, overshoot_pct, sse_pct


def _good(overshoot_pct, sse_pct, limits: GoodnessLimits):
    """The good/bad verdict, elementwise: overshoot and steady-state error
    within the limits. A NaN error (no rise) is not good."""
    return (overshoot_pct <= limits.overshoot_max_pct) & (sse_pct <= limits.sse_max_pct)


def extract_metrics(curve: StepResponseCurve, limits: GoodnessLimits = DEFAULT_LIMITS) -> CurveMetrics:
    """Locate the step and measure rise time, overshoot and steady-state error.

    The injected step is a discontinuity, so t0 snaps to the first logged
    sample at or below the 10% band; the recovery crossings t1/t2 are located
    by linear interpolation between samples, which keeps the rise time
    insensitive to sampling phase. The steady-state window is the final 10%
    of the post-t2 duration. The measures are those of the curve as a batch
    of one (_measure); t1, undershoot, delta_y and settling are its own.
    """
    t, sig = curve.t, curve.signal
    if len(t) < 2:
        raise MalformedCurve(f"curve needs at least 2 samples, got {len(t)}")
    one = CurveBatch(t[None], curve.x[None], curve.y[None], sig[None], np.array([len(t)]),
                     curve.config)
    malformed, stepped, step, rose, t2s, overshoot_pct, sse_pct = _measure(one)
    if malformed[0]:
        raise MalformedCurve("signal contains non-finite values" if np.all(np.diff(t) > 0.0)
                             else "sample times must be strictly increasing")
    if not stepped[0]:
        raise NoStepDetected("signal never crosses the lower band downward")
    p_ref, base, span, l10, _ = _bands(curve.config)
    step_idx = int(step[0])
    t0 = float(t[step_idx])
    up, t1 = _cross_up(one.t, one.signal, step, l10)
    undershoot_pct = max(0.0, base - float(np.min(sig[step_idx:]))) / span * 100.0

    t2 = t_r = sse = delta_y = settling_ms = None
    if rose[0]:
        t2, sse = float(t2s[0]), float(sse_pct[0])
        t_r = t2 - t0
        delta_y = abs(float(np.interp(t2, t, curve.y)) - float(np.interp(t0, t, curve.y)))
        # the curve settles at the sample after the last one outside the 2% band
        outside = np.flatnonzero(np.abs(sig - p_ref) > 0.02 * span)
        settle_idx = max(step_idx, int(outside[-1]) + 1 if len(outside) else 0)
        if settle_idx < len(t):
            settling_ms = float(t[settle_idx]) - t0

    return CurveMetrics(
        t0=t0, t1=float(t1[0]) if up[0] else None, t2=t2, t_r=t_r,
        overshoot_pct=float(overshoot_pct[0]),
        steady_state_error_pct=sse,
        delta_y=delta_y,
        is_good=bool(_good(overshoot_pct[0], sse_pct[0], limits)),
        undershoot_pct=undershoot_pct,
        settling_ms=settling_ms,
    )


# outcomes of extract_metrics_batch, one per row
GOOD, NOT_GOOD, NO_STEP, MALFORMED = range(4)


def extract_metrics_batch(batch: CurveBatch,
                          limits: GoodnessLimits = DEFAULT_LIMITS) -> tuple[np.ndarray, np.ndarray]:
    """extract_metrics' verdict on every row of a batch at once: each row's
    outcome (GOOD; NOT_GOOD; NO_STEP where extract_metrics raises
    NoStepDetected; MALFORMED where it raises MalformedCurve) and its rise
    time, NaN unless GOOD. Both come from the same measures (_measure)."""
    malformed, stepped, step, _, t2, overshoot_pct, sse_pct = _measure(batch)
    good = _good(overshoot_pct, sse_pct, limits)  # NaN errors: rows without a step or a rise
    outcome = np.where(good, GOOD, np.where(stepped, NOT_GOOD, NO_STEP)).astype(np.int8)
    outcome[malformed] = MALFORMED
    t_r = np.full(len(good), np.nan)
    r = np.flatnonzero(good)
    t_r[r] = t2[r] - batch.t[r, step[r]]
    return outcome, t_r


CURVE_CSV_HEADER = ["t_ms", "x", "y", "signal"]


def write_curve_csv(curve: StepResponseCurve, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(CURVE_CSV_HEADER)
        for row in zip(curve.t.tolist(), curve.x.tolist(), curve.y.tolist(), curve.signal.tolist()):
            w.writerow([repr(v) for v in row])
