"""The discrete-event simulation kernel: the public :class:`Simulator` type.

:class:`Simulator` carries everything about a simulation that does not
depend on how scheduled occurrences are stored — the seeded RNG streams,
the metrics registry, the tracer hook, the clock, and the event / process
/ combinator constructors. The queue itself (scheduling, cancellation,
the run loop) is :class:`repro.sim.fastkernel.RingSimulator`, the single
implementation; ``Simulator(seed)`` always builds one.

Occurrences are dispatched in ``(time, priority, seq)`` order, one ``seq``
per scheduling call, and running each occurrence's callbacks is the
*only* execution mechanism in the simulation, which makes runs fully
deterministic: two runs with the same seeds produce identical event
orders.

Time is a float in **seconds** of simulated time.
"""

from __future__ import annotations

from typing import Callable, Generator, Iterable

from repro.obs.metrics import MetricsRegistry
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngRegistry

#: Default priority. Lower runs first among same-time entries.
NORMAL = 0


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


class Simulator:
    """A deterministic discrete-event simulator.

    ``Simulator(seed)`` builds the one kernel implementation,
    :class:`repro.sim.fastkernel.RingSimulator`. ``seed`` is the root
    seed for all named RNG streams (see :class:`RngRegistry`).

    The two-class shape, and the heap-flavoured counter names in
    :meth:`stats` (``tombstones_skipped``, ``heap_peak``,
    ``heap_pending``), survive only because ``bench/trace.py`` and
    ``bench/workloads.py`` resolve them by name; merging the classes and
    renaming the counters belongs to the ``benchmark`` PR that re-points
    those pins.
    """

    def __new__(cls, seed: int = 0):
        if cls is Simulator:
            # Imported lazily: fastkernel imports this module.
            from repro.sim.fastkernel import RingSimulator

            return object.__new__(RingSimulator)
        return object.__new__(cls)

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._running = False
        self.rng = RngRegistry(seed)
        #: The unified metrics registry (:mod:`repro.obs.metrics`) every
        #: subsystem of this simulation registers into. The kernel's own
        #: counters are read through gauges, so there is no duplicated
        #: state.
        self.metrics = MetricsRegistry()
        #: The installed :class:`repro.obs.trace.SpanTracer`, or ``None``
        #: (the default — every tracing hook is then a no-op guard check).
        self.tracer = None
        #: Debug hook: set to a list *before* calling :meth:`run` and the
        #: kernel appends one ``(when, priority, seq)`` triple per
        #: dispatch — how the ``schedules`` goldens are checked.
        self._schedule_log = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling --------------------------------------------------------

    def event(self, name: str | None = None) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value=None) -> Timeout:
        """An event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value=value)

    def call_soon(self, fn: Callable, *args):
        """Run ``fn(*args)`` at the current time, after pending events."""
        return self.call_later(0.0, fn, *args)

    # call_later / cancel_timer / run are declared here for their API
    # docstrings, and must stay defined on this class because
    # bench/trace.py resolves them by name; the kernel installs the
    # implementations on each instance.

    def call_later(self, delay: float, fn: Callable, *args):
        """Run ``fn(*args)`` after ``delay`` simulated seconds.

        Returns a handle that supports ``cancel()`` — a cancelled call
        never runs — and reports ``processed`` once the call ran. Callers
        that drop the handle should use ``defer(delay, fn, *args)``;
        callers that keep it only to cancel should use
        ``timer(delay, fn, *args)``, whose handle is an opaque value for
        :meth:`cancel_timer`.
        """
        raise NotImplementedError

    def cancel_timer(self, handle) -> bool:
        """Cancel a ``timer``/``call_later`` handle. Idempotent; False when dead."""
        raise NotImplementedError

    def process(self, generator: Generator, name: str | None = None) -> Process:
        """Start a new process driving ``generator``.

        The generator yields :class:`Event` objects and is resumed with each
        event's value once it triggers. The returned :class:`Process` is
        itself an event that triggers when the generator returns.
        """
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Race: triggers with ``(index, value)`` of the first event."""
        return AnyOf(self, list(events))

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Barrier: triggers with the list of all event values."""
        return AllOf(self, list(events))

    # -- running -----------------------------------------------------------

    def run(self, until: float | None = None, stop_on: Event | None = None) -> float:
        """Run until nothing is pending or simulated time reaches ``until``.

        With ``stop_on``, the run also stops right after that event has
        been processed — the natural way to wait for one outcome in a
        world where background processes keep the queue non-empty forever.
        Returns the simulated time at which the run stopped. ``until``
        values in the past are a no-op (time never moves backward).
        """
        raise NotImplementedError

    def run_process(self, generator: Generator, until: float | None = None):
        """Start ``generator`` as a process, run, and return its result.

        The run stops as soon as the process finishes (even if other work
        remains scheduled). ``until`` bounds the *absolute* simulated time;
        raises if the process did not finish by then.
        """
        proc = self.process(generator)
        self.run(until=until, stop_on=proc)
        if not proc.triggered:
            raise SimulationError("process did not finish before the run ended")
        return proc.value

    def register_stats_source(self, name: str, provider: Callable[[], dict]) -> None:
        """Attach a named counter provider to :meth:`stats`.

        Subsystems built on the kernel (the network's fault injector, a
        chaos campaign) register a zero-arg callable returning a dict;
        ``stats()`` evaluates it lazily so providers stay cheap to attach.
        Re-registering a name replaces the previous provider. Providers
        live in :attr:`metrics` as ``group`` entries — this method is the
        compatibility spelling of ``sim.metrics.group(name, provider)``.
        """
        self.metrics.group(name, provider)

    def stats(self) -> dict:
        """Kernel counters for diagnostics and the benchmarks.

        A snapshot of :attr:`metrics`: the kernel gauges come first (same
        keys as always), followed by every registered counter, histogram
        and group provider in registration order.
        """
        return self.metrics.snapshot()
