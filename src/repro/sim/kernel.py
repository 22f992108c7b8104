"""The discrete-event simulation kernel: the heap reference implementation.

(``Simulator()`` builds :class:`repro.sim.fastkernel.RingSimulator` by
default; this class is what ``kernel="heap"`` / ``REPRO_KERNEL=heap``
select and what the parity suites compare the ring kernel against.)

The :class:`Simulator` owns a binary heap of slotted :class:`_HeapEntry`
records ordered by ``(time, priority, seq)``. Popping entries in heap
order and running each event's callbacks is the *only* execution mechanism
in the simulation, which makes runs fully deterministic: two runs with the
same seeds produce identical event orders.

Timer cancellation uses lazy deletion: cancelling marks the entry as a
tombstone (and drops its event reference); the run loop skips tombstones
when they surface at the heap top instead of paying O(n) removal or — the
pre-optimisation behaviour — dispatching stale callbacks that every caller
had to guard against. :meth:`Simulator.stats` surfaces the counters
(dispatches, cancellations, tombstones skipped, peak heap size) that the
benchmarks report.

Time is a float in **seconds** of simulated time.
"""

from __future__ import annotations

import heapq
import math
from heapq import heappush
from typing import Callable, Generator, Iterable

from repro.obs.metrics import MetricsRegistry
from repro.sim.events import AllOf, AnyOf, Event, ScheduledCall, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngRegistry

#: Default heap priority. Lower runs first among same-time entries.
NORMAL = 0

_INF = math.inf


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g. scheduling into the past)."""


def _reject_delay(delay) -> None:
    """Raise the canonical error for a delay that failed the range check.

    Both kernels guard their scheduling paths with the same one chained
    comparison (``not 0.0 <= delay < _INF`` rejects negatives, +inf and
    nan alike — nan compares false against everything, which would
    silently corrupt event ordering if it ever got in) and call this
    shared classifier, so the two error messages cannot drift apart.
    """
    if isinstance(delay, (int, float)) and delay < 0:
        raise SimulationError(f"cannot schedule {delay}s into the past")
    raise SimulationError(f"cannot schedule a non-finite delay: {delay}")


class _HeapEntry:
    """One scheduled occurrence on the simulator heap.

    The heap itself stores ``(when, priority, seq, entry)`` tuples so heap
    sifting compares floats/ints at C speed and never calls back into
    Python (``seq`` is unique, so the entry object is never compared).
    The entry carries the mutable state: ``cancelled`` is the
    lazy-deletion tombstone flag — a cancelled entry stays in the heap but
    is skipped (and its event reference dropped), so cancellation is O(1)
    and the callbacks never run.
    """

    __slots__ = ("when", "priority", "seq", "event", "cancelled")

    def __init__(self, when: float, priority: int, seq: int, event) -> None:
        self.when = when
        self.priority = priority
        self.seq = seq
        self.event = event
        self.cancelled = False

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "live"
        return f"<_HeapEntry t={self.when:.6f} seq={self.seq} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Root seed for all named RNG streams (see :class:`RngRegistry`).
    kernel:
        Which kernel implementation backs this simulator: ``"ring"``
        (:class:`repro.sim.fastkernel.RingSimulator`, the flat-array
        timer-wheel kernel — what ``Simulator()`` builds by default) or
        ``"heap"`` (this class — the reference implementation the parity
        suites compare against). ``None`` defers to
        ``repro.perf.PERF.kernel``, which is ``"ring"`` unless the
        ``REPRO_KERNEL`` environment variable says otherwise, so a whole
        test run can be switched without touching any construction site.
    """

    def __new__(cls, seed: int = 0, kernel: str | None = None):
        if cls is Simulator:
            if kernel is None:
                from repro.perf import PERF

                kernel = PERF.kernel
            if kernel == "ring":
                # Imported lazily: fastkernel imports this module.
                from repro.sim.fastkernel import RingSimulator

                return object.__new__(RingSimulator)
            if kernel != "heap":
                raise ValueError(f"unknown kernel {kernel!r} (use 'heap' or 'ring')")
        return object.__new__(cls)

    def __init__(self, seed: int = 0, kernel: str | None = None) -> None:
        self._now = 0.0
        self._heap: list[_HeapEntry] = []
        self._seq = 0
        self._running = False
        self.rng = RngRegistry(seed)
        #: Number of events dispatched so far (for diagnostics/metrics).
        self.dispatched = 0
        self._timers_cancelled = 0
        self._tombstones_skipped = 0
        self._peak_heap = 0
        #: The unified metrics registry (:mod:`repro.obs.metrics`) every
        #: subsystem of this simulation registers into. The kernel's own
        #: counters stay plain attributes on the hot path; the registry
        #: reads them through gauges, so there is no duplicated state.
        self.metrics = MetricsRegistry()
        self.metrics.gauge("events_dispatched", lambda: self.dispatched)
        self.metrics.gauge("timers_cancelled", lambda: self._timers_cancelled)
        self.metrics.gauge("tombstones_skipped", lambda: self._tombstones_skipped)
        self.metrics.gauge("heap_peak", lambda: self._peak_heap)
        self.metrics.gauge("heap_pending", lambda: len(self._heap))
        #: The installed :class:`repro.obs.trace.SpanTracer`, or ``None``
        #: (the default — every tracing hook is then a no-op guard check).
        self.tracer = None
        #: Debug hook: set to a list *before* calling :meth:`run` and the
        #: kernel appends one ``(when, priority, seq)`` triple per
        #: dispatch. Both kernels implement it, which is how the
        #: dual-kernel determinism test asserts schedule equality.
        self._schedule_log = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling --------------------------------------------------------

    def _enqueue(
        self, delay: float, event: Event, priority: int = NORMAL
    ) -> _HeapEntry:
        if not 0.0 <= delay < _INF:
            _reject_delay(delay)
        seq = self._seq = self._seq + 1
        when = self._now + delay
        entry = _HeapEntry(when, priority, seq, event)
        event._entry = entry
        heapq.heappush(self._heap, (when, priority, seq, entry))
        if len(self._heap) > self._peak_heap:
            self._peak_heap = len(self._heap)
        return entry

    def _cancel_entry(self, entry: _HeapEntry | None) -> bool:
        """Tombstone a scheduled entry (lazy deletion). Idempotent."""
        if entry is None or entry.cancelled:
            return False
        entry.cancelled = True
        entry.event = None  # free the event even before the pop skips it
        self._timers_cancelled += 1
        return True

    def event(self, name: str | None = None) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value=None) -> Timeout:
        """An event that triggers ``delay`` seconds from now."""
        return Timeout(self, delay, value=value)

    def call_soon(self, fn: Callable, *args) -> ScheduledCall:
        """Run ``fn(*args)`` at the current time, after pending events."""
        return self.call_later(0.0, fn, *args)

    def call_later(self, delay: float, fn: Callable, *args) -> ScheduledCall:
        """Run ``fn(*args)`` after ``delay`` simulated seconds.

        Returns the underlying event; its value is ``None``. The returned
        :class:`ScheduledCall` supports ``cancel()`` — a cancelled call
        never runs and its heap entry is tombstoned in place.
        """
        # Body of _enqueue inlined: this is called once per network
        # delivery and per timer, the hottest scheduling path there is.
        if not 0.0 <= delay < _INF:
            _reject_delay(delay)
        event = ScheduledCall(self, fn, args)
        seq = self._seq = self._seq + 1
        when = self._now + delay
        entry = _HeapEntry(when, NORMAL, seq, event)
        event._entry = entry
        heap = self._heap
        heappush(heap, (when, NORMAL, seq, entry))
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)
        return event

    def defer(self, delay: float, fn: Callable, *args) -> None:
        """Fire-and-forget ``call_later``: no handle, nothing returned.

        This is the portable spelling of the hottest scheduling pattern
        (network deliveries, periodic ticks) — callers that never cancel
        should use it so the ring kernel can skip slot/handle bookkeeping
        entirely. On this kernel it is ``call_later`` minus the returned
        reference; the event order and seq consumption are identical.
        """
        self.call_later(delay, fn, *args)

    def timer(self, delay: float, fn: Callable, *args):
        """Schedule a cancellable ``fn(*args)`` and return an opaque handle.

        The handle is only meaningful to :meth:`cancel_timer` of the same
        simulator. On this kernel it is the :class:`ScheduledCall` itself;
        the ring kernel returns a packed integer instead — callers must
        treat it as opaque (truthy, not-None) either way.
        """
        return self.call_later(delay, fn, *args)

    def cancel_timer(self, handle) -> bool:
        """Cancel a :meth:`timer` handle. Idempotent; False when dead."""
        if handle is None:
            return False
        return handle.cancel()

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
        """Run until the heap drains or simulated time reaches ``until``.

        With ``stop_on``, the run also stops right after that event has
        been processed — the natural way to wait for one outcome in a
        world where background processes keep the heap non-empty forever.
        Returns the simulated time at which the run stopped. ``until``
        values in the past are a no-op (time never moves backward).
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        if until is not None and until < self._now:
            return self._now
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        sched_log = self._schedule_log
        try:
            while heap:
                if stop_on is not None and stop_on.processed:
                    break
                when = heap[0][0]
                entry = heap[0][3]
                if entry.cancelled:
                    heappop(heap)
                    self._tombstones_skipped += 1
                    continue
                if until is not None and when > until:
                    self._now = until
                    break
                heappop(heap)
                self._now = when
                self.dispatched += 1
                if sched_log is not None:
                    sched_log.append((when, entry.priority, entry.seq))
                entry.event._dispatch()
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        return self._now

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

    def peek(self) -> float | None:
        """Time of the next live scheduled event, or None if none remain.

        Tombstoned entries surfacing at the heap top are discarded here,
        so ``peek`` doubles as incremental garbage collection.
        """
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._tombstones_skipped += 1
        return heap[0][0] if heap else None

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

    def __repr__(self) -> str:
        return f"<Simulator t={self._now:.6f} pending={len(self._heap)}>"
