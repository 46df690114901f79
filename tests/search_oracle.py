"""The goodness estimate as it ran before its trials ran in blocks: one
batch of m_batch trials at a time, each batch run, then checked.

`qoc.estimate_goodness` runs the same trials in blocks that end where some
outcome of their unknown trials could stop the estimate; it must return
this loop's `GoodnessEstimate` and run this loop's trials in this order.
"""

from tcpsbench.qoc import GoodnessEstimate, _run_trials, ci_halfwidth


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
        for t_r, bad_curve in _run_trials(runner, delta_ms, seeds, memo):
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
