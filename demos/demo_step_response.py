"""Walk through one step-response experiment on the ideal channel.

The operator is a PI controller sweeping the teleoperator arm across a
material boundary; halfway through, the contact pressure drops by the step
divisor and the loop corrects it. The teleoperator's log is the
step-response curve everything else is built on.
"""

import numpy as np

from tcpsbench import (
    LoopConfig,
    extract_metrics,
    iae,
    ideal_model,
    oracle_trace,
    run_step_experiment,
)

cfg = LoopConfig()  # kp = k1 = 1, k2 = 1.25, p_ref = 100, delta 1 ms
channel = ideal_model(latency_each_way_ms=0.5).build(seed=1)

record = run_step_experiment(cfg, channel)
curve = record.curve
print(f"plant logged {len(curve.t)} samples over "
      f"{curve.t[-1] - curve.t[0]:.1f} ms")

# the correction around the step: 80 -> 96 -> 99.2 -> 99.84 -> ...
sig = curve.signal
print("signal around the step:", np.round(sig[48:56], 4))

# the simulated run reproduces the closed-form difference equation exactly
reference = np.array([s for (_, _, s) in oracle_trace(cfg)])
print("max |simulated - closed form| =", np.max(np.abs(sig - reference)))

metrics = extract_metrics(curve)
print(f"t0={metrics.t0} ms  t1={metrics.t1} ms  t2={metrics.t2} ms")
print(f"rise time = {metrics.t_r} ms (ideal reference: 1.5 ms)")
print(f"overshoot = {metrics.overshoot_pct}%  "
      f"steady-state error = {metrics.steady_state_error_pct}%  "
      f"good = {metrics.is_good}")

# IAE, for comparison with integral-style metrics only: held errors of
# 20 * 0.2^l for one loop each sum to 20 / (1 - 0.2) = 25 units*ms
print(f"IAE = {iae(curve, metrics.t0):.4f} units*ms (geometric-sum reference: 25)")

# a loop time below the channel round trip destabilizes the correction
fast = LoopConfig(delta_ms=0.6)
bad = run_step_experiment(fast, ideal_model(0.325).build(seed=1))
bad_metrics = extract_metrics(bad.curve)
print(f"\nwith delta 0.6 ms on a 0.65 ms RTT channel: "
      f"overshoot = {bad_metrics.overshoot_pct:.0f}%, good = {bad_metrics.is_good}")
