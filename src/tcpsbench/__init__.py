"""tcpsbench: step-response benchmarking for tactile cyber-physical systems.

Replace the human operator with a PI controller, drive step-response
experiments over simulated or real network channels, and report the
Quality-of-Control metric, QoC performance curves, the hand-speed ceiling
V_max, and the cybersickness exposure E.
"""

from .core import (
    CurveMetrics,
    DEFAULT_LIMITS,
    GoodnessLimits,
    MalformedCurve,
    NoStepDetected,
    RttBudget,
    StepResponseCurve,
    TcpsbenchError,
    classify_good,
    critical_loops,
    extract_metrics,
    max_rtt_kvl,
    read_curve_csv,
    rtt_budget,
    write_curve_csv,
)
from .loopsim import (
    LoopConfig,
    Operator,
    Plant,
    Robot,
    StepExperimentRecord,
    difference_trace,
    oracle_trace,
    plant,
    robot_lag,
    run_step_experiment,
)
from .netsim import (
    Link,
    Topology,
    TrafficFlow,
    channel_from_topology,
    closed_form_delivery,
    route,
    simulate_delivery,
)
from .qoc import (
    NoGoodDelta,
    PerfCurve,
    QoCResult,
    SearchConfig,
    StepRunner,
    estimate_goodness,
    find_delta_opt,
    find_delta_opt_bar,
    iae,
    perf_curve,
    qoc_value,
    quad_cost,
    v_max,
)
from .sickness import (
    HandTrajectory,
    SicknessReport,
    SpeedDist,
    compliant_trajectory,
    error_trace_vs_speed,
    measure_E,
    predict_E,
    synth_trajectory,
)
from .transport import (
    ChannelModel,
    ChecksumMismatch,
    ImpairedChannel,
    Jitter,
    LinkParams,
    Packet,
    PacketTooSmall,
    TruncatedPacket,
    decode,
    encode,
    ideal_model,
)

__version__ = "0.1.0"
