"""Event primitives for the discrete-event simulation kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.
Events are *triggered* (successfully, with a value) or *failed* (with an
exception). Triggering does not run callbacks immediately: the event is
enqueued on the simulator at the current time, and its callbacks run when
the kernel dispatches it. This gives a single, deterministic execution
model for everything that happens in the simulation.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:
    from repro.sim.kernel import Simulator

# Sentinel for "not yet triggered".
_PENDING = object()


class Event:
    """A one-shot occurrence that can carry a value or an exception.

    Parameters
    ----------
    sim:
        The simulator that will dispatch this event's callbacks.
    name:
        Optional human-readable label used in ``repr`` and error messages.
    """

    __slots__ = (
        "sim",
        "name",
        "callbacks",
        "_value",
        "_exception",
        "defused",
        "_entry",
    )

    def __init__(self, sim: "Simulator", name: str | None = None) -> None:
        self.sim = sim
        self.name = name
        #: Callables ``fn(event)`` invoked when the event is processed.
        self.callbacks: list | None = []
        self._value = _PENDING
        self._exception: BaseException | None = None
        #: When True, a failure is considered handled even with no callbacks.
        self.defused = False
        #: Handle set by the kernel when the event is scheduled; lets
        #: cancellable subclasses cancel their occurrence in O(1).
        self._entry = None

    # -- state -----------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once ``succeed`` or ``fail`` was called."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once the kernel has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully."""
        return self.triggered and self._exception is None

    @property
    def value(self):
        """The event's value (raises if the event failed or is pending)."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise RuntimeError(f"{self!r} has not been triggered")
        return self._value

    @property
    def exception(self) -> BaseException | None:
        return self._exception

    # -- triggering ------------------------------------------------------

    def succeed(self, value=None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``.

        With ``delay`` > 0 the callbacks run that much simulated time later.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        self._value = value
        self.sim._enqueue(delay, self)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception."""
        if self.triggered:
            raise RuntimeError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._value = None
        self.sim._enqueue(delay, self)
        return self

    def add_callback(self, fn) -> None:
        """Run ``fn(event)`` once the event is processed.

        If the event was already processed the callback is scheduled to run
        at the current simulated time (never synchronously), keeping
        callback ordering deterministic. Attaching late to a *failed*
        event follows the same contract as :meth:`_dispatch`: after the
        callback observes the failure, the exception surfaces unless the
        event has been defused (the callback may defuse it).
        """
        if self.callbacks is None:
            if self._exception is not None:
                self.sim.call_later(0.0, self._deliver_late, fn)
            else:
                self.sim.call_later(0.0, fn, self)
        else:
            self.callbacks.append(fn)

    def _deliver_late(self, fn) -> None:
        """Deliver a late-attached callback to this failed event.

        Mirrors the unobserved-failure rule in :meth:`_dispatch`: a
        failure handed to a late callback must be handled (the callback
        — like ``Process._resume`` — defuses what it handles) or it propagates instead of vanishing silently.
        """
        fn(self)
        if self._exception is not None and not self.defused:
            raise self._exception

    # -- kernel interface --------------------------------------------------

    def _dispatch(self) -> None:
        """Run callbacks; called by the kernel when the event is dispatched."""
        callbacks, self.callbacks = self.callbacks, None
        for fn in callbacks:
            fn(self)
        if self._exception is not None and not callbacks and not self.defused:
            # Nobody is waiting on this failure: surface it instead of
            # letting the error pass silently.
            raise self._exception

    def _label(self) -> str:
        """What ``repr`` calls an event built without a ``name``.

        Subclasses built once per occurrence (timeouts) describe
        themselves here instead of formatting a name at
        construction that only a ``repr`` would ever read.
        """
        return self.__class__.__name__

    def __repr__(self) -> str:
        label = self.name or self._label()
        state = "ok" if self.ok else ("failed" if self.triggered else "pending")
        return f"<{label} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed amount of simulated time.

    A timeout may be :meth:`cancel`-led before it fires: the callbacks
    never run and the kernel discards the occurrence when it comes due.
    Cancelling an already-processed timeout is a no-op.
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value=None) -> None:
        # Delay validation (negative/non-finite) lives in the kernel's
        # _enqueue — one shared check, one exception type.
        super().__init__(sim)
        self.delay = delay
        self._value = value
        sim._enqueue(delay, self)

    def _label(self) -> str:
        return f"Timeout({self.delay})"

    def cancel(self) -> bool:
        """Prevent this timeout from firing. Returns True if it was live."""
        if self.callbacks is None:
            return False
        return self.sim._cancel_entry(self._entry)
