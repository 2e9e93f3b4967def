"""Generator-driven simulation processes.

A process wraps a Python generator.  The generator yields :class:`Event`
objects; every time one of those events is processed the generator is
resumed with the event's value (or the event's exception is thrown into
it).  A process is itself an event, so processes can wait on each other::

    def worker(env):
        yield env.timeout(5)
        return "done"

    def parent(env):
        result = yield env.process(worker(env))
        assert result == "done"
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from .events import Event, PENDING

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment

__all__ = ["Process", "Interrupt", "InvalidYield"]


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class InvalidYield(RuntimeError):
    """Raised when a process yields something that is not an Event."""


class _Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env.schedule(self)


class Process(Event):
    """An event that represents the execution of a generator function."""

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        #: The event this process is currently waiting on (None when running
        #: its first step or after termination).
        self._target: Optional[Event] = None
        _Initialize(env, self)

    # ------------------------------------------------------------------
    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._value is PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently suspended on."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process.

        Interrupting a dead process is an error; interrupting a process that
        is waiting on an event detaches it from that event first.
        """
        if not self.is_alive:
            raise RuntimeError("cannot interrupt a terminated process")
        if self._target is self:
            raise RuntimeError("a process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True
        interrupt_event.callbacks.append(self._resume)
        self.env.schedule(interrupt_event, priority=0)

    def retarget(self, event: Event) -> None:
        """Move this suspended process's wait from its target to ``event``.

        The old target stays scheduled but no longer resumes the process;
        ``event`` must not have been processed yet.  This lets the owner of
        a far-off wake-up bring it forward without interrupting the process.
        """
        target = self._target
        if target is None:
            raise RuntimeError("only a process waiting on an event can be retargeted")
        if target.callbacks is not None:
            target.callbacks.remove(self._resume)
        event.callbacks.append(self._resume)
        self._target = event

    # ------------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self.env._active_process = self
        # Detach from the previous target: if we were interrupted while
        # waiting, the old event may still fire later and must not resume us
        # twice.
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None and self._resume in self._target.callbacks:
                self._target.callbacks.remove(self._resume)
        self._target = None
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                # The event failed; re-raise inside the generator so it can
                # handle (or not handle) the failure.
                event.defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._ok = True
            self._value = stop.value
            self.env.schedule(self)
            self.env._active_process = None
            return
        except BaseException as exc:
            self._ok = False
            self._value = exc
            self.defused = False
            self.env.schedule(self)
            self.env._active_process = None
            return
        self.env._active_process = None

        if not isinstance(next_event, Event):
            raise InvalidYield(
                f"process yielded {next_event!r}; processes may only yield Event objects"
            )
        if next_event.callbacks is None:
            # Event already processed -- resume immediately on the next step.
            immediate = Event(self.env)
            immediate._ok = next_event._ok
            immediate._value = next_event._value
            immediate.callbacks.append(self._resume)
            self.env.schedule(immediate)
            self._target = immediate
        else:
            next_event.callbacks.append(self._resume)
            self._target = next_event

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<Process({name}) {'alive' if self.is_alive else 'dead'}>"
