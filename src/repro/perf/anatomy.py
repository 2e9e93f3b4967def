"""Cell anatomy: count the engine events a simulation pops, by kind.

Event counts are deterministic, so unlike timings they can be pinned
exactly.  An event's *kind* is its class plus whatever it wakes up: the
generator of the process it resumes, or the qualified name of its first
callback.  An event nobody waits on is a ``no-op``.  For example::

    from repro.perf.anatomy import count_events

    with count_events() as counts:
        env.run(until=30.0)
    print(counts.most_common(5))
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Iterator

from ..sim.calendar import CalendarQueue
from ..sim.events import Event
from ..sim.process import Process

__all__ = ["count_events", "event_kind"]


def event_kind(event: Event) -> str:
    """``"<event class>:<what it wakes>"`` for an event about to be processed."""
    callbacks = event.callbacks
    name = type(event).__name__
    if not callbacks:
        return f"{name}:no-op"
    callback = callbacks[0]
    owner = getattr(callback, "__self__", None)
    if isinstance(owner, Process):
        target = owner._generator.__qualname__
    else:
        target = getattr(callback, "__qualname__", type(callback).__name__)
    return f"{name}:{target}"


@contextmanager
def count_events() -> Iterator[Counter]:
    """Count, by :func:`event_kind`, every event popped off a calendar
    timeline inside the ``with`` block (the default timeline)."""
    counts: Counter = Counter()
    original = CalendarQueue.pop

    def pop(queue: CalendarQueue):
        entry = original(queue)
        counts[event_kind(entry[3])] += 1
        return entry

    CalendarQueue.pop = pop
    try:
        yield counts
    finally:
        CalendarQueue.pop = original
