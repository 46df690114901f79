"""Predict and measure cybersickness exposure on a laggy channel.

Exposure E is the share of operation time the hand/robot error stays within
1 mm. Given the channel's measured hand-speed ceiling, E is predictable from
the trajectory's velocity histogram alone; replaying the trajectory through
the channel measures it directly.
"""

from tcpsbench import compliant_trajectory, find_delta_opt_bar, measure_E, predict_E
from tcpsbench.experiments import load_experiment

exp = load_experiment("vrep-like")  # 5 ms links, first-order robot lag

# grade the channel first: its QoC fixes the hand-speed ceiling
result = find_delta_opt_bar(exp.runner(), g_spec=1.0, search=exp.search)
print(f"tuned loop {result.delta_opt_bar_ms:.0f} ms, QoC = {result.qoc:.2f}, "
      f"V_max = {result.v_max_mps:.4f} m/s")

# build hand trajectories whose below-ceiling share is exact by construction
for fs_hz, fraction in ((40.0, 0.77), (30.0, 0.82), (20.0, 0.88)):
    traj = compliant_trajectory(fs_hz, n_steps=3000, v_max_mps=result.v_max_mps,
                                fraction=fraction, seed=int(fs_hz))
    predicted = predict_E(traj, result.v_max_mps)
    report = measure_E(traj, exp.channel.factory(int(fs_hz)),
                       robot_tau_ms=exp.loop.robot_tau_ms, v_max_mps=result.v_max_mps)
    print(f"fs = {fs_hz:4.0f} Hz: predicted E = {predicted:5.1f}%   "
          f"measured E = {report.measured_e_pct:5.1f}%   "
          f"({report.n_samples} feedback samples)")
