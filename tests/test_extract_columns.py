"""Column-based metric extraction against the loop-based oracle.

`tests/extract_oracle.py` holds the extraction that scanned the curve with
Python loops. On every curve here both must return the same CurveMetrics,
compared field by field through repr (so None matches None and -0.0 differs
from 0.0), or raise the same error type with the same message.
"""

from collections import Counter
from dataclasses import replace
from random import Random

import numpy as np

import extract_oracle
from tcpsbench.core import (
    GoodnessLimits,
    StepResponseCurve,
    TcpsbenchError,
    extract_metrics,
)
from tcpsbench.experiments import PRESET_NAMES, load_experiment
from tcpsbench.loopsim import LoopConfig, run_step_experiment


def _outcome(extract, curve, limits):
    try:
        return repr(extract(curve, limits))
    except TcpsbenchError as exc:
        return f"{type(exc).__name__}: {exc}"


def _random_curve(rng: Random, kind: str) -> tuple[StepResponseCurve, GoodnessLimits]:
    cfg = LoopConfig(p_ref=rng.choice((100.0, 1.0, 37.5, 2.0e4)),
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
    limits = GoodnessLimits(overshoot_max_pct=rng.choice((20.0, rng.uniform(1.0, 99.0))),
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


def test_plant_log_becomes_float64_columns():
    channel = load_experiment("ideal").channel.factory(1)
    rec = run_step_experiment(LoopConfig(sweep_len=10, step_at=5), channel)
    for column in (rec.curve.t, rec.curve.x, rec.curve.y, rec.curve.signal):
        assert column.dtype == np.float64 and column.shape == (10,)
    empty = StepResponseCurve.from_rows([], LoopConfig())
    assert empty.t.shape == empty.signal.shape == (0,)
