"""Host-speed calibration for the benchmark's host-time metrics.

On a shared host the same cell's wall time drifts by ±20% over minutes, as
neighbours come and go.  Medians within one run cannot remove drift that
lasts longer than the run.  So every cell also times a fixed, stdlib-only
event loop (a heap of timed events with callbacks updating counters, the
same kind of work as the simulator's kernel), before and after the cell, in
the same process.  A cell's host times are scaled by
``REFERENCE_S / calibration_s``: they are the seconds the cell would have
taken on the reference host, whose calibration took ``REFERENCE_S``.

Measured over 80 back-to-back ToT cells, the calibration time correlates
with the cell's cost per request at r = 0.75, and scaling cut the spread of
eight-cell medians from 0.18 to 0.06.
"""

from __future__ import annotations

import heapq
import statistics
import time

__all__ = ["REFERENCE_S", "calibration_s"]

#: Median seconds of one calibration burst on the reference host: a shared
#: 2-vCPU Intel Xeon VM running Python 3.11.7.
REFERENCE_S = 0.016

_BURSTS = 5
_EVENTS = 10_000


class _Event:
    __slots__ = ("time", "key", "callback")

    def __init__(self, time_: float, key: int, callback) -> None:
        self.time = time_
        self.key = key
        self.callback = callback


def _burst() -> float:
    counters = {}

    def callback(event: _Event) -> float:
        bucket = event.key % 97
        counters[bucket] = counters.get(bucket, 0) + 1
        return event.key * 7 % 13 * 0.01

    heap = [(index * 0.5, index, _Event(index * 0.5, index, callback)) for index in range(1000)]
    heapq.heapify(heap)
    key = len(heap)
    start = time.perf_counter()
    for _ in range(_EVENTS):
        when, _key, event = heapq.heappop(heap)
        delay = event.callback(event)
        key += 1
        heapq.heappush(heap, (when + delay + 0.25, key, _Event(when + delay, key, callback)))
    return time.perf_counter() - start


def calibration_s() -> float:
    """Median host seconds of a few calibration bursts (about 0.1 s in all)."""
    return statistics.median(_burst() for _ in range(_BURSTS))
