"""Quality-of-Control: loop-time tuning, goodness statistics and the metric.

The loop wait time is tuned by an ascending grid scan: the single-run
optimum is the least grid value whose curve is good, and the statistical
optimum for a target goodness fraction g_spec is the least grid value whose
estimated goodness reaches it. Goodness at one grid point is estimated from
repeated seeded runs, growing the trial count until the 95% confidence
half-width closes under the configured bound. QoC compares the mean rise
time of the good curves against the 1.5 ms ideal; the hand-speed ceiling is
min(1, 10^QoC) m/s. A curve's IAE is only for comparison with integral-style
metrics; it never drives loop-time selection.

Trials run in batches of (loop time, seed) pairs; impaired and ideal ones
as the rows of one block, whose cost is mostly per call. One driver
(_Waves) runs every search's scans over its grid: it fills each call with
the block the scan at the grid point it visits needs and, for such blocks,
the next blocks of the scans at the points after it (a wave), which it may
or may not need later. Each scan reads its trials from the memo as one point
at a time would. The single-run search scans trial 0 of each point; a
goodness estimate and a rejection probe are drivers over one point; the
performance curve runs one driver per target, sharing one memo and the
estimates found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Generator, Protocol, Sequence

import numpy as np

from .core import (
    DEFAULT_LIMITS,
    GOOD,
    MALFORMED,
    CurveBatch,
    GoodnessLimits,
    NoStepDetected,
    StepResponseCurve,
    TcpsbenchError,
    check_seed,
    extract_metrics,  # unused here: the benchmark's tracer wraps this binding
    extract_metrics_batch,
)
from .loopsim import LoopConfig, StepExperimentRecord, run_step_batch, run_step_experiment
from .transport import ChannelModel, ChannelRows, shared_draws

T_R_IDEAL_MS = 1.5  # rise time of the ideal system's tuned curve; fixed, never re-measured
_Z95 = 1.96
PROBE_TRIALS = 8  # trials of the rejection probe at each new grid point
BLOCK_TRIALS = 64  # most trials a block of a scan spans
WAVE_POINTS = 8  # most grid points one run_batch call of a curve search spans
WAVE_TRIALS = 128  # most trials such a call runs; a batch peaks at under 16 KB a trial
_SEED_STRIDE = 1_000_003  # between the seeds of consecutive trials
MAX_GRID_POINTS = 10_000  # most points a delta_min_ms..delta_max_ms grid may hold


class NoGoodDelta(TcpsbenchError):
    """The loop-time grid was exhausted without meeting the target."""


class NonPositiveRiseTime(TcpsbenchError):
    pass


class NonMonotoneCurve(TcpsbenchError):
    """A later goodness target earned a higher QoC than an earlier one."""


class Runner(Protocol):
    """A trial source for the searches: run_batch gives the curves of
    (loop time, seed) trials, one row each, run as one block; speculates
    tells whether a block's cost is mostly per call, so that the searches
    may fill a call with trials they might not need."""

    limits: GoodnessLimits

    def run_batch(self, trials: Sequence[tuple[float, int]]) -> CurveBatch: ...

    def speculates(self) -> bool: ...


@dataclass
class StepRunner:
    """Binds a loop configuration to a per-trial channel factory so searches
    can re-run the experiment at any loop time with independent seeds. A
    factory that is a channel model's build (impaired and ideal channels)
    runs a batch as the rows of one block, with no channel per trial."""

    cfg: LoopConfig
    channel_factory: Callable[[int], object]
    limits: GoodnessLimits = DEFAULT_LIMITS

    def _model(self) -> ChannelModel | None:
        """The channel model whose build the factory is, if any."""
        if getattr(self.channel_factory, "__func__", None) is ChannelModel.build:
            return self.channel_factory.__self__
        return None

    def run(self, delta_ms: float, seed: int) -> StepExperimentRecord:
        return run_step_experiment(replace(self.cfg, delta_ms=delta_ms),
                                   self.channel_factory(seed))

    def run_batch(self, trials: Sequence[tuple[float, int]]) -> CurveBatch:
        """The curves of (loop time, seed) trials, one row each, run as one
        block: the model's block of their seeds, or else the ChannelRows of
        the channels the factory builds for them."""
        model, seeds = self._model(), [seed for _, seed in trials]
        block = (model.block(seeds) if model is not None
                 else ChannelRows([self.channel_factory(seed) for seed in seeds]))
        return run_step_batch(self.cfg, block, [delta for delta, _ in trials]).curves

    def speculates(self) -> bool:
        """Whether the trials run as the rows of a block, whose cost is
        mostly per call: a channel model's build. A topology trial costs
        about the same alone or in a batch."""
        return self._model() is not None


@dataclass(frozen=True)
class SearchConfig:
    """Grid and stopping parameters for the loop-time searches."""

    delta_min_ms: float = 0.1
    delta_max_ms: float = 5.0
    delta_step_ms: float = 0.1
    deltas: tuple[float, ...] | None = None
    ci_halfwidth: float = 0.05
    m_max: int = 2000
    m_batch: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        # a NaN or infinite bound or step would make grid() endless
        for name in ("delta_min_ms", "delta_max_ms", "delta_step_ms"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.deltas is None:
            if self.delta_min_ms <= 0.0 or self.delta_step_ms <= 0.0:
                raise ValueError("grid must be positive")
            if self.delta_max_ms < self.delta_min_ms:
                raise ValueError("delta_max_ms below delta_min_ms")
            if self.delta_min_ms + self.delta_step_ms == self.delta_min_ms:
                raise ValueError(f"delta_step_ms {self.delta_step_ms!r} does not advance "
                                 f"delta_min_ms {self.delta_min_ms!r}")
            # grid()'s size, from its bounds: a ratio too large for a float is inf
            span = self.delta_max_ms + 1e-12 - self.delta_min_ms
            if span / self.delta_step_ms >= MAX_GRID_POINTS:
                raise ValueError(f"the grid from delta_min_ms to delta_max_ms by delta_step_ms "
                                 f"has more than {MAX_GRID_POINTS} points")
        elif not self.deltas:  # all() of nothing is True
            raise ValueError("explicit grid deltas must not be empty")
        elif not all(0.0 < d < math.inf for d in self.deltas):  # NaN fails too
            raise ValueError(f"explicit grid deltas must be positive and finite, "
                             f"got {list(self.deltas)}")
        if not 0.0 < self.ci_halfwidth < 0.5:
            raise ValueError("ci_halfwidth must lie in (0, 0.5)")
        if self.m_batch < 1 or self.m_max < self.m_batch:
            raise ValueError("need 1 <= m_batch <= m_max")
        if self.m_batch > WAVE_TRIALS:  # a check's trials run in one call: MAX_SWEEP_LEN's sizing
            raise ValueError(f"m_batch must be at most {WAVE_TRIALS}, got {self.m_batch}")
        check_seed(self.seed)  # one seed range with LoopConfig: --seed sets both

    def grid(self) -> list[float]:
        if self.deltas is not None:
            return sorted(self.deltas)
        out = []
        i = 0
        while True:
            d = self.delta_min_ms + i * self.delta_step_ms
            if d > self.delta_max_ms + 1e-12:
                break
            out.append(d)
            i += 1
        return out

    def trial_seed(self, trial: int) -> int:
        return self.seed + _SEED_STRIDE * (trial + 1)

    def trial_seeds(self, start: int, stop: int) -> range:
        """trial_seed(i) for i in range(start, stop)."""
        return range(self.trial_seed(start), self.trial_seed(stop), _SEED_STRIDE)


def ci_halfwidth(g: float, m: int) -> float:
    """95% normal-approximation confidence half-width of a fraction."""
    if m <= 0:
        return float("inf")
    return _Z95 * math.sqrt(g * (1.0 - g) / m)


@dataclass
class GoodnessEstimate:
    """Outcome of repeated runs at one loop time. malformed counts the trials
    whose curve was malformed (scored not good, like a curve without a step)."""

    delta_ms: float
    g: float
    m: int
    ci: float
    m_cap_exceeded: bool
    good_rise_times: list[float] = field(default_factory=list)
    malformed: int = 0

    @property
    def t_r_mean_ms(self) -> float | None:
        if not self.good_rise_times:
            return None
        return float(np.mean(self.good_rise_times))


# (delta, seed) -> (rise time if good, else None; malformed) of one search
TrialMemo = dict[tuple[float, int], tuple[float | None, bool]]


def _run_trials(runner: Runner, trials: Sequence[tuple[float, int]],
                memo: TrialMemo) -> list[tuple[float | None, bool]]:
    """(rise time of a good curve, else None; whether the curve was
    malformed) of each (delta, seed) trial, in order. A curve without a
    step or a malformed curve is a "not good" trial. The trials the memo
    does not hold run as one batch (runner.run_batch), once each, and are
    extracted as one batch into the memo."""
    todo = list(dict.fromkeys(t for t in trials if t not in memo))
    if todo:
        outcome, t_r = extract_metrics_batch(runner.run_batch(todo), runner.limits)
        for trial, o, t in zip(todo, outcome.tolist(), t_r.tolist()):
            memo[trial] = (t if o == GOOD else None, o == MALFORMED)
    return [memo[t] for t in trials]


def _block_end(delta_ms: float, search: SearchConfig, step: int, last: int,
               stop: Callable[[int, int], bool], memo: TrialMemo, good: int, done: int) -> int:
    """The check a block of trials from trial `done` (good of them good)
    runs to: the first where some outcome of its trials not in the memo
    could meet stop, else the last that keeps the block within
    BLOCK_TRIALS trials, and at least the first. Only the two extreme
    outcomes, every unknown trial good or every one bad, are tried."""
    known = unknown = 0
    end = done
    while end < last:
        check = min(end + step, last)
        if end > done and check - done > BLOCK_TRIALS:
            break
        held = [memo.get((delta_ms, s)) for s in search.trial_seeds(end, check)]
        unknown += held.count(None)
        known += sum(o is not None and o[0] is not None for o in held)
        end = check
        if stop(good + known, check) or stop(good + known + unknown, check):
            break
    return end


def _scan(delta_ms: float, search: SearchConfig, step: int, last: int,
          stop: Callable[[int, int], bool], memo: TrialMemo):
    """A sequential test over the seeded trials at one loop time, as a
    generator that yields each block of trials it needs that the memo does
    not hold, and resumes once the memo holds them.

    Takes trials search.trial_seed(0), (1), ... and evaluates stop(good,
    done) after every `step` trials and after trial `last`, until it
    holds. Returns the outcomes (as _run_trials gives them) of the trials
    up to that check, or of all `last`, and whether stop held. Where its
    outcomes run out, a block runs to the first check where some outcome of
    its trials not in the memo could meet stop (_block_end), so the same
    trials run as check by check. Wherever stop holds between two good
    counts, it must hold at one of them: true where a concave function of
    the goodness lies at or below a bound, as for both CI rules."""
    outcomes: list[tuple[float | None, bool]] = []
    good = counted = 0
    while counted < last:
        check = min(counted + step, last)
        if check > len(outcomes):
            end = _block_end(delta_ms, search, step, last, stop, memo, good, counted)
            trials = [(delta_ms, s) for s in search.trial_seeds(counted, end)]
            todo = [t for t in trials if t not in memo]
            if todo:
                yield todo
            outcomes += [memo[t] for t in trials]
        good += sum(t_r is not None for t_r, _ in outcomes[counted:check])
        counted = check
        if stop(good, check):
            return outcomes[:check], True
    return outcomes, False


def _estimate_scan(delta_ms: float, search: SearchConfig, memo: TrialMemo):
    """The goodness estimate's scan (estimate_goodness); it returns the estimate."""
    outcomes, stopped = yield from _scan(
        delta_ms, search, search.m_batch, search.m_max,
        lambda good, m: ci_halfwidth(good / m, m) <= search.ci_halfwidth, memo)
    m = len(outcomes)
    rise_times = [t_r for t_r, _ in outcomes if t_r is not None]
    g = len(rise_times) / m
    return GoodnessEstimate(delta_ms=delta_ms, g=g, m=m, ci=ci_halfwidth(g, m),
                            m_cap_exceeded=not stopped, good_rise_times=rise_times,
                            malformed=sum(bad_curve for _, bad_curve in outcomes))


def _probe_scan(delta_ms: float, search: SearchConfig, g_spec: float, memo: TrialMemo):
    """The rejection probe's scan (_rejectable); it returns the verdict."""

    def hopeless(good: int, done: int) -> bool:
        best_g = (good + PROBE_TRIALS - done) / PROBE_TRIALS
        return best_g + ci_halfwidth(best_g, PROBE_TRIALS) < g_spec

    # after the last trial, hopeless() is the bound on the goodness found
    return (yield from _scan(delta_ms, search, 1, PROBE_TRIALS, hopeless, memo))[1]


def estimate_goodness(runner: Runner, delta_ms: float, search: SearchConfig,
                      memo: TrialMemo | None = None) -> GoodnessEstimate:
    """Estimate the fraction of good curves at one loop time.

    Checks the 95% CI half-width of the fraction after every m_batch
    seed-indexed trials and stops once it is within search.ci_halfwidth,
    or at m_max (reported via m_cap_exceeded, not fatal). The trials run
    in blocks of up to BLOCK_TRIALS that end at the first check some
    outcome of their trials could stop (_scan), so the same trials run as
    batch by batch. Trial seeds depend only on the trial index, so
    estimates at different loop times share seeds. A memo given by the
    caller supplies the trials it already holds.
    """
    if delta_ms <= 0.0:
        raise ValueError("delta_ms must be positive")
    return _Waves(runner, [delta_ms], lambda d, m: _estimate_scan(d, search, m), memo).finish(0)


def _rejectable(runner: Runner, delta_ms: float, search: SearchConfig, g_spec: float,
                memo: TrialMemo | None = None) -> bool:
    """Cheap scan filter: after PROBE_TRIALS shared-seed trials, is the upper
    95% confidence bound on goodness already below g_spec? Used only to skip
    hopeless grid points; accepted points always get the full estimate.
    It stops as soon as the bound falls below g_spec even if every trial
    left were good: a sequential test checked after every trial (_scan),
    so its blocks end at the earliest trial some outcome could stop it."""
    return _Waves(runner, [delta_ms], lambda d, m: _probe_scan(d, search, g_spec, m),
                  memo).finish(0)


def find_delta_opt(runner: Runner, search: SearchConfig) -> float:
    """Least grid loop time whose single-run curve is good (deterministic
    channels); scans ascending. Each point's scan runs trial 0 and stops
    when its curve is good, so a runner that speculates runs trial 0 of
    WAVE_POINTS grid points in one call (_Waves)."""
    grid = search.grid()
    waves = _Waves(runner, grid, lambda d, m: _scan(d, search, 1, 1, lambda good, _: good > 0, m))
    for idx, delta in enumerate(grid):
        if waves.finish(idx)[1]:
            return delta
    raise NoGoodDelta("no grid loop time produced a good curve")


@dataclass(frozen=True)
class QoCResult:
    """Tuned loop time and the metric values it earned for one target."""

    g_spec: float
    delta_opt_bar_ms: float
    g_achieved: float
    g_ci_halfwidth: float
    m: int
    t_r_mean_ms: float
    qoc: float
    v_max_mps: float
    m_cap_exceeded: bool = False

    def summary(self) -> str:
        lines = [
            f"g_spec: {self.g_spec}",
            f"delta_opt_bar_ms: {self.delta_opt_bar_ms}",
            f"g_achieved: {self.g_achieved} (ci +/- {self.g_ci_halfwidth:.4f}, m={self.m})",
            f"t_r_mean_ms: {self.t_r_mean_ms}",
            f"qoc: {self.qoc}",
            f"v_max_mps: {self.v_max_mps}",
        ]
        if self.m_cap_exceeded:
            lines.append("m_cap_exceeded: true")
        return "\n".join(lines)


def qoc_value(t_r_ms: float) -> float:
    """log10 of the ideal rise time over the measured one; 0 for the ideal
    system, negative for slower ones."""
    if t_r_ms <= 0.0:
        raise NonPositiveRiseTime(f"t_r = {t_r_ms}")
    return math.log10(T_R_IDEAL_MS / t_r_ms)


def v_max(qoc: float) -> float:
    """Hand-speed ceiling in m/s: min(1, 10^qoc)."""
    return min(1.0, 10.0 ** min(qoc, 0.0))  # clamped first: 10^400 overflows


def _result_from_estimate(g_spec: float, est: GoodnessEstimate) -> QoCResult:
    t_r_mean = est.t_r_mean_ms
    if t_r_mean is None:
        raise NoGoodDelta("estimate holds no good curves")
    q = qoc_value(t_r_mean)
    return QoCResult(
        g_spec=g_spec,
        delta_opt_bar_ms=est.delta_ms,
        g_achieved=est.g,
        g_ci_halfwidth=est.ci,
        m=est.m,
        t_r_mean_ms=t_r_mean,
        qoc=q,
        v_max_mps=v_max(q),
        m_cap_exceeded=est.m_cap_exceeded,
    )


def find_delta_opt_bar(runner: Runner, g_spec: float, search: SearchConfig) -> QoCResult:
    """Least grid loop time whose goodness estimate reaches g_spec, with the
    QoC computed over that grid point's good curves."""
    if not 0.0 < g_spec <= 1.0:
        raise ValueError("g_spec must lie in (0, 1]")
    pc = perf_curve(runner, [g_spec], search)
    if pc.missing:
        raise NoGoodDelta(f"no grid loop time reaches goodness {g_spec}")
    return pc.points[0]


@dataclass
class PerfCurve:
    """QoC as a function of the goodness target. The tuned loop time cannot
    decrease as the target grows, but a later grid point can still have a
    shorter mean rise time, so a non-increasing QoC is checked, not implied."""

    points: list[QoCResult]
    missing: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        qocs = [p.qoc for p in self.points]
        if any(b > a + 1e-9 for a, b in zip(qocs, qocs[1:])):
            raise NonMonotoneCurve(f"performance curve must be non-increasing, got QoC {qocs}")


def _point_scan(delta_ms: float, search: SearchConfig, g_spec: float,
                estimates: dict[float, GoodnessEstimate], memo: TrialMemo):
    """A grid point's scans as the search for g_spec runs them: none when
    the point has an estimate, which it returns; else the probe, then the
    estimate unless the probe rejects the point; it returns that estimate,
    or None on a rejection."""
    if delta_ms in estimates:
        return estimates[delta_ms]
    if (yield from _probe_scan(delta_ms, search, g_spec, memo)):
        return None
    return (yield from _estimate_scan(delta_ms, search, memo))


class _Waves:
    """The scans of one search over a grid, one per point, run in waves;
    scan(delta, memo) makes a point's scan (as _scan runs). A wave is one
    run_batch call: the block the scan at the current grid point needs,
    and, when the runner speculates, the next block of each following
    point's scan that has not ended, nearest first, within WAVE_POINTS
    points and WAVE_TRIALS trials. Each scan resumes where its last block
    left it and keeps its result once it ends. The memo holds the trials
    run; searches that pass one share their trials."""

    def __init__(self, runner: Runner, grid: list[float],
                 scan: Callable[[float, TrialMemo], Generator],
                 memo: TrialMemo | None = None) -> None:
        self.runner, self.grid, self.scan = runner, grid, scan
        self.memo = {} if memo is None else memo
        self.scans: dict[int, list] = {}  # grid index -> [its scan, its next block or None]
        self.results: dict[int, Any] = {}  # grid index -> its scan's result, once it has ended

    def _next(self, idx: int) -> list[tuple[float, int]] | None:
        """The block the scan at grid point idx needs next; None once it has ended."""
        if idx not in self.scans:
            self.scans[idx] = [self.scan(self.grid[idx], self.memo), None]
        entry = self.scans[idx]
        if entry[1] is None and idx not in self.results:
            try:
                entry[1] = next(entry[0])
            except StopIteration as done:
                self.results[idx] = done.value
        return entry[1]

    def finish(self, idx: int) -> Any:
        """Run waves until the scan of grid point idx ends, and return its result."""
        while (block := self._next(idx)) is not None:
            wave, points = list(block), [idx]
            if idx + 1 < len(self.grid) and self.runner.speculates():
                for j in range(idx + 1, len(self.grid)):
                    if len(points) == WAVE_POINTS:
                        break
                    if (more := self._next(j)) is None:
                        continue
                    if len(wave) + len(more) > WAVE_TRIALS:
                        break
                    wave += more
                    points.append(j)
            _run_trials(self.runner, wave, self.memo)
            for j in points:
                self.scans[j][1] = None
        return self.results[idx]


@shared_draws()
def perf_curve(runner: Runner, g_specs: Sequence[float], search: SearchConfig) -> PerfCurve:
    """One tuned QoC per target, ascending; grid points and their trial
    batches are shared across targets, and each (delta, seed) trial runs
    once, so a full estimate reuses its point's probe trials. Impaired
    channels share their random draws by seed for the whole search. Targets
    the grid cannot satisfy are recorded as missing rather than failing
    the whole curve.

    The points are visited one at a time under each target, and each visit
    reads its point's result from the scan the target's waves (_Waves) ran
    for it; a wave also runs the next blocks of the following points. The
    targets' waves share one memo and the estimates found."""
    specs = list(g_specs)
    if any(b <= a for a, b in zip(specs, specs[1:])):
        raise ValueError("g_spec list must be strictly increasing")
    grid = search.grid()
    estimates: dict[float, GoodnessEstimate] = {}  # one trial batch per grid point
    memo: TrialMemo = {}
    points: list[QoCResult] = []
    missing: list[float] = []
    start_idx = 0
    for g_spec in specs:
        waves = _Waves(runner, grid, lambda d, m: _point_scan(d, search, g_spec, estimates, m),
                       memo)
        for idx in range(start_idx, len(grid)):
            if (est := waves.finish(idx)) is None:  # the probe rejects the point
                continue
            estimates[grid[idx]] = est
            if est.g >= g_spec and est.good_rise_times:
                start_idx = idx  # a later target can never accept an earlier grid point
                points.append(_result_from_estimate(g_spec, est))
                break
        else:
            missing.append(g_spec)
    return PerfCurve(points=points, missing=missing)


def iae(curve: StepResponseCurve, t0: float) -> float:
    """Integral of absolute tracking error from the step onset to the end of
    the record (units * ms). The trapezoid includes the last sample before
    the onset, reconstructing the error ramp across the discontinuity; 0
    when fewer than two samples remain."""
    if len(curve.t) < 2:
        raise NoStepDetected("curve too short to integrate")
    start = max(0, int(np.searchsorted(curve.t, t0)) - 1)
    if start >= len(curve.t) - 1:
        return 0.0
    err = curve.config.p_ref - curve.signal[start:]
    return float(np.trapezoid(np.abs(err), curve.t[start:]))


def result_rows_csv(results: Sequence[QoCResult]) -> str:
    """CSV rendering shared by the summary artifacts."""
    lines = ["g_spec,delta_opt_ms,t_r_ms,qoc,v_max"]
    for p in results:
        lines.append(f"{p.g_spec!r},{p.delta_opt_bar_ms!r},{p.t_r_mean_ms!r},{p.qoc!r},{p.v_max_mps!r}")
    return "\n".join(lines) + "\n"
