"""Column-based metric extraction against the loop-based oracle.

`tests/extract_oracle.py` holds the extraction that scanned the curve with
Python loops. On every curve here both must return the same CurveMetrics,
compared field by field through repr (so None matches None and -0.0 differs
from 0.0), or raise the same error type with the same message. The batched
verdict, extract_metrics_batch, must give every row of a batch the outcome
the oracle gives its curve, and the same rise time bit for bit.
"""

from collections import Counter
from dataclasses import replace
from random import Random

import numpy as np

import extract_oracle
from tcpsbench.core import (
    GOOD,
    MALFORMED,
    NO_STEP,
    NOT_GOOD,
    DEFAULT_LIMITS,
    CurveBatch,
    GoodnessLimits,
    MalformedCurve,
    NoStepDetected,
    StepResponseCurve,
    TcpsbenchError,
    extract_metrics,
    extract_metrics_batch,
)
from tcpsbench.experiments import PRESET_NAMES, load_experiment
from tcpsbench.loopsim import LoopConfig, run_step_batch, run_step_experiment
from tcpsbench.transport import ChannelRows


def _outcome(extract, curve, limits):
    try:
        return repr(extract(curve, limits))
    except TcpsbenchError as exc:
        return f"{type(exc).__name__}: {exc}"


def _verdict(curve, limits):
    """The oracle's outcome in extract_metrics_batch's terms: the outcome
    and the repr of the rise time of a good curve."""
    try:
        m = extract_oracle.extract_metrics(curve, limits)
    except NoStepDetected:
        return (NO_STEP, "nan")
    except MalformedCurve:
        return (MALFORMED, "nan")
    return (GOOD, repr(m.t_r)) if m.is_good else (NOT_GOOD, "nan")


def _batch_verdicts(batch, limits):
    outcome, t_r = extract_metrics_batch(batch, limits)
    return [(o, repr(t)) for o, t in zip(outcome.tolist(), t_r.tolist())]


def _random_curve(rng: Random, kind: str, cfg: LoopConfig | None = None,
                  limits: GoodnessLimits | None = None) -> tuple[StepResponseCurve, GoodnessLimits]:
    cfg = cfg or LoopConfig(p_ref=rng.choice((100.0, 1.0, 37.5, 2.0e4)),
                            k_2=rng.choice((1.25, 1.1, 2.0, rng.uniform(1.01, 3.0))))
    base = cfg.p_ref / cfg.k_2
    span = cfg.p_ref - base
    l10, l90 = base + 0.1 * span, base + 0.9 * span
    n = rng.randint(0, 3) if kind == "short" else rng.randint(4, 120)
    step = rng.randint(1, max(1, n - 1))
    noise = rng.choice((0.0, 0.01, 0.1)) * span
    root = rng.uniform(-0.95, 0.95)
    sig = []
    for i in range(n):
        if kind in ("flat", "short") or i < step:
            v = cfg.p_ref
        elif kind == "no-step":
            v = l10 + rng.uniform(1e-9, 2.0) * span
        elif kind == "no-rise":
            v = base + rng.uniform(0.0, 0.85) * span
        else:
            v = cfg.p_ref - span * root ** (i - step)
        sig.append(v + (rng.uniform(-noise, noise) if kind != "flat" else 0.0))
    if kind == "levels" and n:
        # land exactly on the band levels so the <=, < and >= edges are exercised
        for _ in range(rng.randint(1, 6)):
            sig[rng.randrange(n)] = rng.choice((l10, l90, base, cfg.p_ref))
        if rng.random() < 0.5:  # start at or below the band, as a haptic curve does
            for i in range(rng.randint(2, 5)):
                sig[i] = rng.choice((l10, base, 0.0))
    dt = rng.choice((1.0, 0.1, rng.uniform(0.05, 5.0)))
    t0 = rng.uniform(-5.0, 5.0)
    t = [t0 + i * dt + rng.uniform(0.0, 0.4) * dt for i in range(n)]
    if kind == "repeated" and n >= 2:
        j = rng.randrange(1, n)
        t[j] = t[j - 1]
    if kind == "nan" and n:
        target = sig if rng.random() < 0.7 else t
        target[rng.randrange(n)] = rng.choice((float("nan"), float("inf"), -float("inf")))
    ys = [rng.uniform(-1.0, 1.0) * cfg.p_ref for _ in range(n)]
    if kind == "nan" and n and rng.random() < 0.3:
        ys[rng.randrange(n)] = float("nan")
    limits = limits or GoodnessLimits(
        overshoot_max_pct=rng.choice((20.0, rng.uniform(1.0, 99.0))),
        sse_max_pct=rng.choice((10.0, rng.uniform(1.0, 99.0))))
    curve = StepResponseCurve(t=t, x=list(range(n)), y=ys, signal=sig, config=cfg)
    return curve, limits


KINDS = ("step", "step", "levels", "flat", "no-step", "no-rise", "repeated", "nan", "short")


def test_random_curves_match_the_oracle():
    rng = Random(6)
    outcomes = Counter()
    for i in range(2700):
        curve, limits = _random_curve(rng, KINDS[i % len(KINDS)])
        expected = _outcome(extract_oracle.extract_metrics, curve, limits)
        assert _outcome(extract_metrics, curve, limits) == expected, (i, expected)
        assert _batch_verdicts(CurveBatch.from_curves([curve]), limits) == [
            _verdict(curve, limits)], (i, expected)
        if expected.startswith("CurveMetrics"):
            outcomes["good" if "is_good=True" in expected else
                     "no rise" if "t2=None" in expected else "bad"] += 1
        else:
            outcomes[expected.split(",")[0]] += 1
    # every branch of the extraction is reached many times
    assert min(outcomes.values()) >= 40 and len(outcomes) == 7, outcomes


def test_preset_curves_match_the_oracle():
    for preset in PRESET_NAMES:
        exp = load_experiment(preset)
        for seed in range(6):
            rec = run_step_experiment(replace(exp.loop, seed=seed), exp.channel.factory(seed))
            expected = _outcome(extract_oracle.extract_metrics, rec.curve, exp.limits)
            assert _outcome(extract_metrics, rec.curve, exp.limits) == expected


def test_random_batches_match_the_oracle():
    """Batches of 1 to 20 random curves of every kind and length that share
    a configuration and limits: each row gets its curve's verdict."""
    rng = Random(16)
    seen = Counter()
    for _ in range(200):
        cfg = LoopConfig(p_ref=rng.choice((100.0, 1.0, 37.5, 2.0e4)),
                         k_2=rng.choice((1.25, 1.1, 2.0, rng.uniform(1.01, 3.0))))
        limits = GoodnessLimits(overshoot_max_pct=rng.choice((20.0, rng.uniform(1.0, 99.0))),
                                sse_max_pct=rng.choice((10.0, rng.uniform(1.0, 99.0))))
        curves = [_random_curve(rng, rng.choice(KINDS), cfg, limits)[0]
                  for _ in range(rng.randint(1, 20))]
        want = [_verdict(c, limits) for c in curves]
        assert _batch_verdicts(CurveBatch.from_curves(curves), limits) == want
        seen.update(o for o, _ in want)
    assert min(seen.values()) >= 100 and len(seen) == 4, seen


def test_infinite_last_time_stamp():
    """A rise through the upper band into an infinite last time stamp puts
    t2 at infinity: extract_metrics' max(0.0, inf - inf) is 0.0, so the
    steady-state window is that last sample."""
    cfg = LoopConfig()
    rows = [(0.0, 100.0), (1.0, 100.0), (2.0, 80.0), (3.0, 95.0), (4.0, 90.0),
            (float("inf"), 100.0)]
    curve = StepResponseCurve(t=[t for t, _ in rows], x=list(range(6)), y=[0.0] * 6,
                              signal=[v for _, v in rows], config=cfg)
    flat = StepResponseCurve(t=list(range(6)), x=list(range(6)), y=[0.0] * 6,
                             signal=[100.0] * 6, config=cfg)
    want = [_verdict(curve, DEFAULT_LIMITS), _verdict(flat, DEFAULT_LIMITS)]
    assert want[0] == (GOOD, "inf")
    assert _batch_verdicts(CurveBatch.from_curves([curve, flat]), DEFAULT_LIMITS) == want


def test_preset_batches_match_the_oracle():
    """Batches of 20 simulated trials per preset and loop time, including
    the malformed curves of the impaired presets at short loop times."""
    seen = Counter()
    for preset in PRESET_NAMES:
        exp = load_experiment(preset)
        for delta in (0.5, 0.9, exp.loop.delta_ms, 3.0):
            cfg = replace(exp.loop, delta_ms=delta)
            batch = run_step_batch(cfg, ChannelRows([exp.channel.factory(exp.search.trial_seed(i))
                                                     for i in range(20)])).curves
            want = [_verdict(batch.curve(i), exp.limits) for i in range(20)]
            assert _batch_verdicts(batch, exp.limits) == want, (preset, delta)
            seen.update(o for o, _ in want)
    assert seen[GOOD] and seen[NOT_GOOD] and seen[MALFORMED], seen


def test_plant_log_becomes_float64_columns():
    channel = load_experiment("ideal").channel.factory(1)
    rec = run_step_experiment(LoopConfig(sweep_len=10, step_at=5), channel)
    for column in (rec.curve.t, rec.curve.x, rec.curve.y, rec.curve.signal):
        assert column.dtype == np.float64 and column.shape == (10,)
    empty = StepResponseCurve.from_rows([], LoopConfig())
    assert empty.t.shape == empty.signal.shape == (0,)
