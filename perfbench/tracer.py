"""Span tracer that wraps ``repro``'s layer entry points from outside.

Entering a :class:`Tracer` replaces each listed method on its class (and on
every subclass that overrides it), or each listed module function, with a
wrapper that records one span per call: layer, start, end, parent span and,
when the call carries a :class:`~repro.workloads.request.Request`, its ID.  Spans stay in memory
(compact ``array`` columns) until :meth:`Tracer.write` saves them.

A span's *self time* is its duration minus the durations of its direct
children.  Code that runs outside every wrapped call of its own -- a
process generator's body resumed by an event callback, say -- lands in the
enclosing span, which for event callbacks is ``sim`` (``Environment.step``).
Self times of all spans add up exactly (integer nanoseconds) to the summed
durations of the root spans; wall time outside every root span is reported
as unattributed.

The tracer is a context manager: every replaced attribute is put back when
the ``with`` block exits, also when the traced run raises.
"""

from __future__ import annotations

import json
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Tracer", "TracePoint"]

#: (layer, class or module, attribute name, index of the Request argument or
#:  None, optional hook called with the positional arguments before the call).
TracePoint = Tuple[str, object, str, Optional[int], Optional[Callable]]


def _classes_defining(cls, name: str) -> list:
    """``cls`` and every subclass whose own ``__dict__`` defines ``name``
    (just ``cls`` when it is a module)."""
    if not isinstance(cls, type):
        return [cls]
    found: List[type] = []
    pending = [cls]
    seen = set()
    while pending:
        klass = pending.pop()
        if klass in seen:
            continue
        seen.add(klass)
        if name in vars(klass):
            found.append(klass)
        pending.extend(klass.__subclasses__())
    return found


class Tracer:
    """Records layer spans around wrapped methods while installed."""

    def __init__(self, points: Sequence[TracePoint]) -> None:
        self._points = list(points)
        #: One entry per wrapped function: (layer, "Class.method").
        self.kinds: List[Tuple[str, str]] = []
        self.calls: List[int] = []
        self.self_ns: List[int] = []
        self.total_ns: List[int] = []
        # Span columns, one row per call, in call order.
        self.kind = array("H")
        self.parent = array("i")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self._restore: List[Tuple[object, str, object]] = []
        self._stack: List[int] = []
        self._child_ns: List[int] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "Tracer":
        # An override inherits its base's point unless a point names the
        # subclass itself (RoutedNetwork.deliver is `net`, not `network`).
        explicit = {(cls, name) for _layer, cls, name, _arg, _hook in self._points}
        chosen: Dict[Tuple[object, str], Tuple[str, Optional[int], Optional[Callable]]] = {}
        for layer, cls, name, request_arg, hook in self._points:
            for klass in _classes_defining(cls, name):
                if klass is cls or (klass, name) not in explicit:
                    chosen.setdefault((klass, name), (layer, request_arg, hook))
        try:
            for (klass, name), (layer, request_arg, hook) in chosen.items():
                original = vars(klass)[name]
                self._restore.append((klass, name, original))
                kind = self._new_kind(layer, f"{klass.__name__.rpartition('.')[2]}.{name}")
                setattr(klass, name, self._wrap(kind, original, request_arg, hook))
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._uninstall()

    def _uninstall(self) -> None:
        while self._restore:
            klass, name, original = self._restore.pop()
            setattr(klass, name, original)

    def span(self, layer: str, label: str) -> "_Span":
        """A context manager recording one span around benchmark code."""
        return _Span(self, self._new_kind(layer, label))

    def _new_kind(self, layer: str, label: str) -> int:
        self.kinds.append((layer, label))
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)
        return len(self.kinds) - 1

    # ------------------------------------------------------------------
    def _open(self, kind: int, request_id: int) -> int:
        index = len(self.kind)
        self.kind.append(kind)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(request_id)
        self.start.append(0)
        self.end.append(0)
        self._stack.append(index)
        self._child_ns.append(0)
        return index

    def _close(self, kind: int, index: int, start: int, end: int) -> None:
        self.start[index] = start
        self.end[index] = end
        self._stack.pop()
        duration = end - start
        self.calls[kind] += 1
        self.total_ns[kind] += duration
        self.self_ns[kind] += duration - self._child_ns.pop()
        if self._child_ns:
            self._child_ns[-1] += duration

    def _wrap(self, kind: int, original, request_arg: Optional[int], hook):
        clock = time.perf_counter_ns
        open_span = self._open
        close_span = self._close

        def traced(*args, **kwargs):
            request_id = -1
            if request_arg is not None and len(args) > request_arg:
                request_id = getattr(args[request_arg], "request_id", -1)
            if hook is not None:
                hook(args)
            index = open_span(kind, request_id)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                close_span(kind, index, start, clock())

        return traced

    # ------------------------------------------------------------------
    def root_ns(self) -> int:
        """Summed duration of the spans that have no parent."""
        return sum(
            end - start
            for parent, start, end in zip(self.parent, self.start, self.end)
            if parent < 0
        )

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per layer, in host seconds."""
        totals: Dict[str, int] = {}
        for (layer, _label), nanos in zip(self.kinds, self.self_ns):
            totals[layer] = totals.get(layer, 0) + nanos
        return {layer: nanos / 1e9 for layer, nanos in totals.items()}

    def count(self, label: str) -> int:
        """Calls recorded for the wrapped functions whose label ends with
        ``label`` (``"Environment.step"``, or ``".select_replica"`` for every
        class)."""
        return sum(c for (_layer, lab), c in zip(self.kinds, self.calls) if lab.endswith(label))

    def mean_us(self, labels: Sequence[str]) -> float:
        """Mean duration (host microseconds) of the calls to ``labels``."""
        calls = total = 0
        for (_layer, label), count, nanos in zip(self.kinds, self.calls, self.total_ns):
            if label in labels:
                calls += count
                total += nanos
        return total / calls / 1e3 if calls else 0.0

    def write(self, directory: Path, stem: str) -> None:
        """Save the span columns (``<stem>.spans``) and their legend (``.json``).

        The binary file holds the five columns back to back, in the order
        and ``array`` typecodes the legend lists; times are
        ``perf_counter_ns`` readings.
        """
        directory.mkdir(parents=True, exist_ok=True)
        columns = (
            ("kind", self.kind),
            ("parent", self.parent),
            ("request", self.request),
            ("start", self.start),
            ("end", self.end),
        )
        with open(directory / f"{stem}.spans", "wb") as handle:
            for _name, column in columns:
                column.tofile(handle)
        legend = {
            "spans": len(self.kind),
            "columns": [[name, column.typecode] for name, column in columns],
            "kinds": [list(kind) for kind in self.kinds],
        }
        (directory / f"{stem}.json").write_text(json.dumps(legend, indent=1) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, kind: int) -> None:
        self._tracer = tracer
        self._kind = kind

    def __enter__(self) -> None:
        self._index = self._tracer._open(self._kind, -1)
        self._start = time.perf_counter_ns()

    def __exit__(self, *exc_info) -> None:
        self._tracer._close(self._kind, self._index, self._start, time.perf_counter_ns())
