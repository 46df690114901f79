"""Differential test of the loop arithmetic at constants other than the presets'.

Every preset, and every random case of `tests/test_skeleton.py`, runs the
loop at k_p = k_1 = 1.0, k_2 = 1.25 and p_ref = 100, so a product with a
k_p or k_1 other than 1.0, or a negative p_ref, never shows there. These
cases take the channels, settings and robot lag of the skeleton cases and
draw k_2 in (1, 3], k_1 and k_p with k_p * k_1 <= k_2,
and p_ref in [-50, 300], often below 0. `run_step_experiment` and every
record of a batch of 2 to 12 trials must equal both oracles, bit for bit:
the scalar recurrence of `tests/trial_oracle.py` and the event-driven
runner of `tests/step_oracle.py` (compared through repr, so -0.0 differs
from 0.0).
"""

from collections import Counter
from dataclasses import replace
from random import Random

import pytest

from step_oracle import run_step_on_clock
from test_skeleton import _case, _record
from trial_oracle import run_trial
from tcpsbench.loopsim import run_step_batch, run_step_experiment
from tcpsbench.transport import ChannelRows

CASES = 200


def _constants_case(i):
    """Case i of the skeleton test at random loop constants, and the seeds
    of its batch."""
    cfg, model = _case(i)
    rng = Random(12000 + i)
    k_2 = 3.0 - 2.0 * rng.random()
    k_1 = rng.choice((1.0, rng.uniform(0.2, 2.5)))
    k_p = rng.choice((1.0, rng.uniform(0.05, 1.0))) * k_2 / k_1
    if rng.random() < 0.3 and k_1 <= k_2:
        k_p = 1.0
    p_ref = rng.choice((100.0, rng.uniform(-50.0, 300.0), rng.uniform(-50.0, 0.0)))
    cfg = replace(cfg, k_p=k_p, k_1=k_1, k_2=k_2, p_ref=p_ref)
    return cfg, model, [cfg.seed + j for j in range(rng.randint(2, 12))]


@pytest.mark.parametrize("block", range(4))
def test_random_constants_match_both_oracles(block):
    for i in range(block * CASES // 4, (block + 1) * CASES // 4):
        cfg, model, seeds = _constants_case(i)
        batch = run_step_batch(cfg, ChannelRows([model.build(s) for s in seeds]))
        for j, seed in enumerate(seeds):
            want = _record(run_trial(cfg, model.build(seed)))
            assert _record(run_step_on_clock(cfg, model.build(seed))) == want, (i, seed)
            assert _record(batch.record(j)) == want, (i, seed)
        assert _record(run_step_experiment(cfg, model.build(seeds[0]))) == _record(
            batch.record(0)), i


def test_random_constants_cover_the_gains():
    """The cases are not vacuous: the gains other than 1.0 and p_ref
    other than 100 show, in both settings, with and without robot lag."""
    seen = Counter()
    for i in range(CASES):
        cfg, _, _ = _constants_case(i)
        haptic, lag = cfg.setting == "haptic", cfg.robot_tau_ms > 0.0
        seen["k_p != 1"] += cfg.k_p != 1.0
        seen["k_p = 1"] += cfg.k_p == 1.0
        seen["haptic, k_1 != 1"] += haptic and cfg.k_1 != 1.0
        seen["k_2 != 1.25"] += cfg.k_2 != 1.25
        seen["p_ref != 100"] += cfg.p_ref != 100.0
        seen["negative p_ref, non-haptic, lag"] += cfg.p_ref < 0.0 and not haptic and lag
        seen["gain at the bound"] += cfg.k_p * cfg.k_1 > 0.9 * cfg.k_2
    assert min(seen.values()) >= 10 and len(seen) == 7, seen
