"""Deterministic virtual-clock event scheduler.

A simulated channel bound to a scheduler delivers one packet at a time as
an event (SimChannel.send); the event-driven reference runners in the tests
drive their loops on it, so that every send and delivery executes in global
time order. The experiment runners need no clock: every simulated step run
and cybersickness replay asks its channel for a whole round trip at once,
matching the clock bit for bit. Time is in milliseconds and advances only
when events run, which makes runs reproducible bit-for-bit and much faster
than wall time.
"""

from __future__ import annotations

import heapq
from typing import Callable

# Events at equal timestamps run in priority order; deliveries must become
# visible before a controller check scheduled at the same instant.
PRIO_DELIVERY = 0
PRIO_CONTROL = 1


class SchedulerError(Exception):
    pass


class EventScheduler:
    """Min-heap event loop over virtual milliseconds."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, int, Callable[[], None]]] = []
        self._seq = 0

    def schedule(self, t_ms: float, fn: Callable[[], None], priority: int = PRIO_DELIVERY) -> None:
        if t_ms < self.now:
            raise SchedulerError(f"cannot schedule event in the past ({t_ms} < {self.now})")
        heapq.heappush(self._heap, (t_ms, priority, self._seq, fn))
        self._seq += 1

    def run(self, stop: Callable[[], bool] | None = None) -> None:
        """Run events until the heap drains or `stop()` turns true."""
        while self._heap:
            if stop is not None and stop():
                return
            t, _prio, _seq, fn = heapq.heappop(self._heap)
            self.now = t
            fn()
