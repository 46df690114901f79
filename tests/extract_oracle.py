"""Reference step-response metric extraction, kept as the test oracle.

This is the loop-based `extract_metrics` that `tcpsbench.core` used while a
curve was a list of sample objects, with its band helper and its own
good/bad verdict. Only the line that reads the curve changed: it takes the
columns. The vectorised extraction in
`core` must agree with it on every curve, field for field and error for
error.
"""

import numpy as np

from tcpsbench.core import (
    DEFAULT_LIMITS,
    CurveMetrics,
    GoodnessLimits,
    MalformedCurve,
    NoStepDetected,
    StepResponseCurve,
)


def _bands(curve: StepResponseCurve) -> tuple[float, float, float, float]:
    cfg = curve.config
    p_ref = float(cfg.p_ref)
    k2 = float(cfg.k_2)
    base = p_ref / k2
    span = p_ref - base
    return p_ref, span, base + 0.1 * span, base + 0.9 * span


def _cross_up(t: np.ndarray, sig: np.ndarray, start: int, level: float) -> float | None:
    """Interpolated time of the first upward crossing of `level` at index
    > start. Returns None if the signal never reaches the level."""
    for j in range(start + 1, len(sig)):
        if sig[j] >= level and sig[j - 1] < level:
            frac = (level - sig[j - 1]) / (sig[j] - sig[j - 1])
            return float(t[j - 1] + frac * (t[j] - t[j - 1]))
    return None


def _is_good(t2: float | None, sse_pct: float | None, overshoot_pct: float,
             limits: GoodnessLimits) -> bool:
    """A curve is good when it rose back (t2 defined) and both overshoot and
    steady-state error sit within the limits."""
    if t2 is None or sse_pct is None:
        return False
    return overshoot_pct <= limits.overshoot_max_pct and sse_pct <= limits.sse_max_pct


def extract_metrics(curve: StepResponseCurve, limits: GoodnessLimits = DEFAULT_LIMITS) -> CurveMetrics:
    t, sig, y = curve.t, curve.signal, curve.y
    n = len(t)
    if n < 2:
        raise MalformedCurve(f"curve needs at least 2 samples, got {n}")
    if not np.all(np.diff(t) > 0.0):
        raise MalformedCurve("sample times must be strictly increasing")
    if not np.all(np.isfinite(sig)):
        raise MalformedCurve("signal contains non-finite values")

    p_ref, span, l10, l90 = _bands(curve)

    step_idx = None
    for i in range(1, n):
        if sig[i] <= l10 < sig[i - 1]:
            step_idx = i
            break
    if step_idx is None:
        raise NoStepDetected("signal never crosses the lower band downward")
    t0 = float(t[step_idx])

    t1 = _cross_up(t, sig, step_idx, l10)
    t2 = _cross_up(t, sig, step_idx, l90)

    post = sig[step_idx:]
    peak = float(np.max(post))
    trough = float(np.min(post))
    overshoot_pct = max(0.0, peak - p_ref) / span * 100.0
    undershoot_pct = max(0.0, (p_ref / curve.config.k_2) - trough) / span * 100.0

    t_r = sse_pct = delta_y = settling_ms = None
    if t2 is not None:
        t_r = t2 - t0
        t_end = float(t[-1])
        win_start = t2 + 0.9 * max(0.0, t_end - t2)
        window = sig[t >= win_start]
        sse_pct = abs(float(np.mean(window)) - p_ref) / span * 100.0

        delta_y = abs(float(np.interp(t2, t, y)) - float(np.interp(t0, t, y)))

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
