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
                self.sim.call_soon(self._deliver_late, fn)
            else:
                self.sim.call_soon(fn, self)
        else:
            self.callbacks.append(fn)

    def _deliver_late(self, fn) -> None:
        """Deliver a late-attached callback to this failed event.

        Mirrors the unobserved-failure rule in :meth:`_dispatch`: a
        failure handed to a late callback must be handled (the callback
        — like ``Process._resume`` or the combinators — defuses what it
        handles) or it propagates instead of vanishing silently.
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

    def __repr__(self) -> str:
        label = self.name or self.__class__.__name__
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
        super().__init__(sim, name=f"Timeout({delay})")
        self.delay = delay
        self._value = value
        sim._enqueue(delay, self)

    def cancel(self) -> bool:
        """Prevent this timeout from firing. Returns True if it was live."""
        if self.callbacks is None:
            return False
        return self.sim._cancel_entry(self._entry)


class AnyOf(Event):
    """Triggers when the first of ``events`` triggers.

    The value is ``(index, value)`` of the winning event. Losing events
    that support ``cancel()`` (queue gets, for example) are cancelled so
    they do not consume resources after the race is decided. A losing
    event that fails after the race is decided is defused.
    """

    __slots__ = ("events", "_decided")

    def __init__(self, sim: "Simulator", events: list) -> None:
        super().__init__(sim, name="AnyOf")
        if not events:
            raise ValueError("AnyOf requires at least one event")
        self.events = list(events)
        self._decided = False
        for index, event in enumerate(self.events):
            event.add_callback(self._make_callback(index))

    def _make_callback(self, index: int):
        def on_done(event: Event) -> None:
            if self._decided:
                event.defused = True
                return
            self._decided = True
            for loser in self.events:
                if loser is not event:
                    loser.defused = True
                    cancel = getattr(loser, "cancel", None)
                    if cancel is not None:
                        cancel()
            if event.ok:
                self.succeed((index, event.value))
            else:
                # The race observes (and therefore handles) the winner's
                # failure; the AnyOf event now carries it onward.
                event.defused = True
                self.fail(event.exception)

        return on_done


class AllOf(Event):
    """Triggers when every one of ``events`` has triggered successfully.

    The value is the list of event values, in the order given. Fails with
    the first failure observed.
    """

    __slots__ = ("events", "_remaining", "_failed")

    def __init__(self, sim: "Simulator", events: list) -> None:
        super().__init__(sim, name="AllOf")
        self.events = list(events)
        self._remaining = len(self.events)
        self._failed = False
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            event.add_callback(self._on_done)

    def _on_done(self, event: Event) -> None:
        if self._failed:
            event.defused = True
            return
        if not event.ok:
            self._failed = True
            event.defused = True
            self.fail(event.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e.value for e in self.events])
