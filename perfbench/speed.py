"""Host speed probe for the benchmark's untraced runs.

A shared host's speed drifts by tens of percent within seconds, which would
swamp the differences the benchmark exists to show. The probe times a small
fixed kernel while measurements run and scales each measured time to the
speed of a reference host.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class _State:
    x: float
    y: float


def event_loop_kernel() -> None:
    """A fixed event loop in the program's own style: a heap of timed
    callbacks, each replacing a small frozen dataclass."""
    heap = []
    box = [_State(0.0, 0.0)]

    def step(t: float) -> None:
        s = box[0]
        box[0] = replace(s, x=s.x + 1.0, y=s.y + 0.5 * (100.0 - t))

    for i in range(300):
        heapq.heappush(heap, ((i * 7919) % 1000 * 0.5, i, step))
    while heap:
        t, _, fn = heapq.heappop(heap)
        fn(t)


EVENT_LOOP_REF_S = 0.0008  # event_loop_kernel's time on the reference host


def kernel_seconds(repeats: int = 5) -> float:
    """Median time of event_loop_kernel over `repeats` runs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        event_loop_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def to_reference(wall_s: float, kernel_s: float) -> float:
    """The time `wall_s` would take on the reference host, given the
    kernel's time on this host while it was measured."""
    return wall_s * EVENT_LOOP_REF_S / kernel_s


class SpeedProbe:
    """Samples how fast the host runs while a measurement is in progress.

    While active, a timer signal runs event_loop_kernel every INTERVAL_S in
    the main thread. measure() subtracts the probes' time from the wall time
    of a call and scales the rest with the mean kernel time seen during the
    call.
    """

    INTERVAL_S = 0.025

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None
        for _ in range(5):
            self._probe()
        self.speed = statistics.median(self.samples)

    def _probe(self, *_signal) -> None:
        t0 = time.perf_counter()
        event_loop_kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """perf_counter() without the time spent in probes."""
        return time.perf_counter() - self.spent

    def measure(self, fn):
        """Returns (wall seconds without probes, reference seconds, fn())."""
        n0, spent0 = len(self.samples), self.spent
        t0 = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - t0 - (self.spent - spent0)
        during = self.samples[n0:]
        if during:
            self.speed = statistics.fmean(during)
        return wall, to_reference(wall, self.speed), result
