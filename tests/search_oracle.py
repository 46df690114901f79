"""The searches as they ran before their trials ran in larger blocks.

`estimate_goodness` runs one batch of m_batch trials at a time, each batch
run, then checked. `qoc.estimate_goodness` runs the same trials in blocks
that end where some outcome of their unknown trials could stop the
estimate; it must return this loop's `GoodnessEstimate` and run this loop's
trials in this order.

`perf_curve` visits the grid points one at a time, and each probe and
estimate runs its own blocks as it goes. `qoc.perf_curve` runs the trials
in waves that also hold the next blocks of the following grid points, and
reads each point's verdict and estimate from the scan the waves ran; it
must return this loop's `PerfCurve`, with this loop's probe verdicts and
estimates, and run every trial this loop runs.
"""

from tcpsbench.qoc import (
    GoodnessEstimate,
    PerfCurve,
    _rejectable,
    _result_from_estimate,
    _run_trials,
    ci_halfwidth,
)
from tcpsbench.qoc import estimate_goodness as blocked_estimate
from tcpsbench.transport import shared_draws


def estimate_goodness(runner, delta_ms, search, memo=None):
    if delta_ms <= 0.0:
        raise ValueError("delta_ms must be positive")
    malformed = 0
    m = 0
    rise_times = []
    capped = False
    while True:
        batch = min(search.m_batch, search.m_max - m)
        seeds = [search.trial_seed(m + i) for i in range(batch)]
        for t_r, bad_curve in _run_trials(runner, [(delta_ms, s) for s in seeds], memo):
            malformed += bad_curve
            if t_r is not None:
                rise_times.append(t_r)
        m += batch
        g = len(rise_times) / m
        ci = ci_halfwidth(g, m)
        if ci <= search.ci_halfwidth:
            break
        if m >= search.m_max:
            capped = True
            break
    return GoodnessEstimate(delta_ms=delta_ms, g=g, m=m, ci=ci, m_cap_exceeded=capped,
                            good_rise_times=rise_times, malformed=malformed)


@shared_draws()
def perf_curve(runner, g_specs, search):
    specs = list(g_specs)
    if any(b <= a for a, b in zip(specs, specs[1:])):
        raise ValueError("g_spec list must be strictly increasing")
    grid = search.grid()
    estimates = {}
    memo = {}
    points = []
    missing = []
    start_idx = 0
    for g_spec in specs:
        for idx in range(start_idx, len(grid)):
            est = estimates.get(grid[idx])
            if est is None:
                if _rejectable(runner, grid[idx], search, g_spec, memo=memo):
                    continue
                est = estimates[grid[idx]] = blocked_estimate(runner, grid[idx], search,
                                                              memo=memo)
            if est.g >= g_spec and est.good_rise_times:
                start_idx = idx
                points.append(_result_from_estimate(g_spec, est))
                break
        else:
            missing.append(g_spec)
    return PerfCurve(points=points, missing=missing)

