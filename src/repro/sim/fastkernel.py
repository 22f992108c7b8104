"""The event kernel: a flat-array timer wheel (the ``ring`` kernel).

:class:`RingSimulator` is the single implementation of
:class:`~repro.sim.kernel.Simulator`. Against the textbook binary heap
holding one event object plus one entry object per scheduled occurrence,
three structural choices carry its speed (the measured comparison is in
EXPERIMENTS.md):

**Slots instead of objects.** Cancellable occurrences live in parallel
flat arrays (doubled on demand) — ``when`` in an ``array('d')``, a packed
``(priority, seq)`` ordering key in an ``array('q')``, the callable and
argument tuple in two plain lists — addressed by an integer slot index
recycled through a free list. A *handle* is one int, ``key << 21 | slot``:
the key doubles as a generation stamp, so a stale handle to a recycled
slot can never cancel (or report on) the slot's next occupant.

**A timer wheel instead of a heap.** Occurrences within the wheel horizon
(``nslots * tick``, ~8 s at the defaults) are appended O(1) to the bucket
``int(when / tick)``; buckets are opened in time order through a small
heap of non-empty absolute bucket indices, so idle stretches cost one
heap pop, not a walk. Each opened bucket is sorted once and dispatched as
a run; entries landing in the current or a past bucket go through a small
``extra`` overflow heap that the drain loop merges by comparison.
Far-future deadlines overflow to a plain heap and migrate into their
bucket when the wheel reaches it. Bucket placement uses the *same*
``int(when / tick)`` everywhere, so float rounding at bucket boundaries
cannot reorder two occurrences: ``int`` of a monotone product is
monotone, and the ``(when, key)`` sort inside a run is exact.

**O(1) cancel with slot recycling instead of tombstone churn.**
Cancelling clears the slot's callable and counts the cancellation; the
entry already threaded through a bucket/heap stays where it is (each
scheduled occurrence has exactly *one* container reference) and the slot
is recycled only when that reference is consumed — which is what makes
bare-int bucket entries safe without per-slot generation arrays.

Fire-and-forget scheduling (``defer`` — network deliveries, periodic
ticks) skips slots entirely: one ``(when, key, fn, args)`` tuple goes
straight into its bucket, and nothing is ever allocated per occurrence
beyond that tuple. None of the per-occurrence state is cycle-forming, so
a run does not feed the cyclic garbage collector.

Every scheduling call consumes one ``seq`` and dispatch is in
``(when, priority, seq)`` order exactly: ``tests/golden`` (``schedules``)
pins the dispatch logs of three seeded runs, and
``tests/property/test_kernel_equivalence.py`` checks random scripts
against a sorted-list model.
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import Callable

from repro.sim.events import Event
from repro.sim.kernel import NORMAL, SimulationError, Simulator

_INF = math.inf

#: Handle layout: ``key << SLOT_BITS | slot``. 2^21 concurrent slots is
#: far beyond any simulation here; capacity growth raises past it.
_SLOT_BITS = 21
_SLOT_MASK = (1 << _SLOT_BITS) - 1
_MAX_SLOTS = 1 << _SLOT_BITS

#: Ordering key layout: ``(priority + _PRIO_BIAS) << 44 | seq``. One int
#: comparison then orders ``(priority, seq)`` exactly like comparing the
#: pair. 44 bits of seq and 7 of priority fit a signed 64-bit array slot.
_SEQ_BITS = 44
_SEQ_MASK = (1 << _SEQ_BITS) - 1
_PRIO_BIAS = 64
_KEY_NORMAL = (NORMAL + _PRIO_BIAS) << _SEQ_BITS


def _reject_delay(delay) -> None:
    """Raise the error for a delay that failed the range check.

    Every scheduling path guards with the same one chained comparison
    (``not 0.0 <= delay < _INF`` rejects negatives, +inf and nan alike —
    nan compares false against everything, which would silently corrupt
    event ordering if it ever got in) and calls this to classify.
    """
    if isinstance(delay, (int, float)) and delay < 0:
        raise SimulationError(f"cannot schedule {delay}s into the past")
    raise SimulationError(f"cannot schedule a non-finite delay: {delay}")


class _RingCall:
    """Cancellable wrapper around a ring-kernel handle.

    ``call_later`` compatibility only — callers that keep the reference
    to cancel should use ``sim.timer``/``sim.cancel_timer`` and skip this
    allocation; callers that drop it should use ``sim.defer`` and skip
    the slot too.
    """

    __slots__ = ("sim", "_handle", "_cancelled")

    def __init__(self, sim: "RingSimulator", handle: int) -> None:
        self.sim = sim
        self._handle = handle
        self._cancelled = False

    def cancel(self) -> bool:
        if self.sim._cancel_entry(self._handle):
            self._cancelled = True
            return True
        return False

    @property
    def processed(self) -> bool:
        """True once the call ran (cancelled calls never 'process')."""
        if self._cancelled:
            return False
        return not self.sim._handle_live(self._handle)

    # Event state surface: a scheduled call that ran "succeeded with
    # value None" (the callable's return value is ignored).
    triggered = processed
    ok = processed

    @property
    def value(self):
        if not self.processed:
            raise RuntimeError(f"{self!r} has not been triggered")
        return None

    def __repr__(self) -> str:
        state = (
            "cancelled"
            if self._cancelled
            else ("pending" if self.sim._handle_live(self._handle) else "done")
        )
        return f"<_RingCall {state} handle={self._handle:#x}>"


class RingSimulator(Simulator):
    """Flat-array timer-wheel kernel: the implementation of :class:`Simulator`.

    ``Simulator(seed)`` builds one; constructing it directly is the same
    thing. On top of the methods declared on :class:`Simulator` it
    provides ``defer(delay, fn, *args)`` (fire-and-forget),
    ``timer(delay, fn, *args)`` (returns an opaque int handle for
    ``cancel_timer``), ``peek()`` (time of the next live occurrence, or
    None) and the ``_enqueue`` / ``_cancel_entry`` pair events use.

    The ``stats()`` counters keep the names ``bench/`` reads (see the
    note on :class:`Simulator`): ``tombstones_skipped`` counts cancelled
    entries at cancel time (each is lazily discarded exactly once
    later), ``heap_pending`` counts entries still threaded through a
    container (cancelled ones included) and ``heap_peak`` is the maximum
    of that resident count seen at any dispatch.
    """

    # Wheel geometry: 1 ms buckets, 8192 of them (~8.2 s horizon). The
    # protocol workloads here schedule sub-millisecond deliveries and
    # 0.1-5 s timers, so nearly everything lands in the wheel; only
    # multi-second failure detectors started far ahead hit the far heap.
    TICK = 0.001
    NSLOTS = 8192

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._build()
        self.metrics.gauge("events_dispatched", self._get_dispatched)
        self.metrics.gauge("timers_cancelled", self._get_cancelled)
        self.metrics.gauge("tombstones_skipped", self._get_cancelled)
        self.metrics.gauge("heap_peak", self._get_peak)
        self.metrics.gauge("heap_pending", self._get_pending)
        self.metrics.gauge("slot_capacity", self._get_capacity)
        self.metrics.gauge("slots_free", self._get_free)
        self.metrics.gauge("slots_freed", self._get_freed)

    # The whole kernel is built as one closure so the hot paths read
    # their state through cell variables (LOAD_DEREF) instead of
    # attribute lookups, and the bound functions are installed as
    # instance attributes, skipping descriptor dispatch per call.
    def _build(self) -> None:
        tick = self.TICK
        nslots = self.NSLOTS
        invtick = 1.0 / tick
        mask = nslots - 1
        int_ = int
        push = heapq.heappush
        pop = heapq.heappop

        # Slot arrays start small and double on demand (grow()); the wheel
        # is a list of None whose buckets are created by their first
        # entry. That keeps a fresh simulator at ~80 KiB, which matters
        # because every simulator sits in a closure<->instance cycle until
        # a full collection, and a process may build many.
        cap = 256
        whens = array("d", bytes(8 * cap))
        keys_a = array("q", bytes(8 * cap))
        fns: list = [None] * cap
        argss: list = [None] * cap
        free = list(range(cap - 1, -1, -1))

        # wheel[i] is None (empty, not in bucket_heap) or a non-empty list
        # (in bucket_heap) holding a mix of 4-tuples (when, key, fn, args)
        # from defer and bare int slots from the cancellable paths; the
        # sort at flush never compares position 2 because keys are unique.
        wheel: list = [None] * nslots
        bucket_heap: list[int] = []  # absolute indices of non-empty buckets
        extra: list = []  # entries for the current/past bucket (heap)
        far: list = []  # entries beyond the wheel horizon (heap)

        run_list: list = []  # current bucket, sorted
        idx = 0  # next entry in run_list

        now = 0.0
        seq = 0  # occurrences scheduled
        cur = 0  # absolute index of the bucket being drained
        disp = 0  # occurrences dispatched
        canc = 0  # occurrences cancelled (still threaded somewhere)
        freed = 0  # cancelled occurrences physically discarded
        peak = 0  # max entries resident in containers (incl. cancelled)

        def grow() -> None:
            n0 = len(fns)
            if 2 * n0 > _MAX_SLOTS:
                raise SimulationError(
                    f"ring kernel slot capacity exceeded ({_MAX_SLOTS})"
                )
            whens.extend(whens)
            keys_a.extend(keys_a)
            fns.extend([None] * n0)
            argss.extend([None] * n0)
            free.extend(range(2 * n0 - 1, n0 - 1, -1))

        def defer(delay: float, fn: Callable, *args) -> None:
            """Fire-and-forget ``fn(*args)`` after ``delay``; no handle."""
            nonlocal seq
            if not 0.0 <= delay < _INF:
                _reject_delay(delay)
            s = seq = seq + 1
            w = now + delay
            b = int_(w * invtick)
            d = b - cur
            if 0 < d < nslots:
                lst = wheel[b & mask]
                if lst is None:
                    wheel[b & mask] = [(w, _KEY_NORMAL + s, fn, args)]
                    push(bucket_heap, b)
                else:
                    lst.append((w, _KEY_NORMAL + s, fn, args))
            elif d <= 0:
                push(extra, (w, _KEY_NORMAL + s, fn, args))
            else:
                push(far, (w, _KEY_NORMAL + s, fn, args))
        self.defer = defer

        def _put_slot(delay: float, fn, args, priority: int) -> int:
            """Common slot path for timer() and _enqueue(). Returns handle."""
            nonlocal seq
            if not 0.0 <= delay < _INF:
                _reject_delay(delay)
            s = seq = seq + 1
            if priority == NORMAL:
                key = _KEY_NORMAL + s
            else:
                if not -_PRIO_BIAS <= priority < _PRIO_BIAS:
                    raise SimulationError(
                        f"priority {priority} out of ring-kernel range "
                        f"[{-_PRIO_BIAS}, {_PRIO_BIAS})"
                    )
                key = ((priority + _PRIO_BIAS) << _SEQ_BITS) | s
            if not free:
                grow()
            slot = free.pop()
            w = now + delay
            whens[slot] = w
            keys_a[slot] = key
            fns[slot] = fn
            argss[slot] = args
            b = int_(w * invtick)
            d = b - cur
            if 0 < d < nslots:
                lst = wheel[b & mask]
                if lst is None:
                    wheel[b & mask] = [slot]
                    push(bucket_heap, b)
                else:
                    lst.append(slot)
            elif d <= 0:
                push(extra, (w, key, False, slot))
            else:
                push(far, (w, key, False, slot))
            return (key << _SLOT_BITS) | slot

        def timer(delay: float, fn: Callable, *args) -> int:
            """Schedule cancellable ``fn(*args)``; returns an int handle."""
            return _put_slot(delay, fn, args, NORMAL)
        self.timer = timer

        def call_later(delay: float, fn: Callable, *args) -> _RingCall:
            return _RingCall(self, _put_slot(delay, fn, args, NORMAL))
        self.call_later = call_later

        def _enqueue(delay: float, event: Event, priority: int = NORMAL) -> int:
            # args=None is the kernel-internal "this is an Event" code:
            # dispatch calls event._dispatch() instead of fn(*args).
            # (defer/timer always store a real tuple, never None.)
            handle = _put_slot(delay, event, None, priority)
            event._entry = handle
            return handle
        self._enqueue = _enqueue

        def cancel_timer(handle) -> bool:
            """Cancel a handle. O(1); idempotent; False when already dead."""
            nonlocal canc
            if handle is None:
                return False
            if handle.__class__ is not int:
                # A _RingCall from call_later (or any .cancel()-bearing
                # handle).
                return handle.cancel()
            slot = handle & _SLOT_MASK
            if keys_a[slot] != handle >> _SLOT_BITS or fns[slot] is None:
                return False
            fns[slot] = None
            argss[slot] = None
            canc += 1
            return True
        self.cancel_timer = cancel_timer
        self._cancel_entry = cancel_timer

        def _handle_live(handle: int) -> bool:
            slot = handle & _SLOT_MASK
            return keys_a[slot] == handle >> _SLOT_BITS and fns[slot] is not None
        self._handle_live = _handle_live

        def _advance(until_f: float):
            """Open the next bucket; returns its sorted entries, or None.

            ``None`` means the run must stop: either nothing is pending
            anywhere, or the next non-empty bucket provably lies beyond
            ``until_f``. An empty tuple means "bucket consumed, keep
            going" (everything in it had been cancelled).
            """
            nonlocal cur, freed
            tb = bucket_heap[0] if bucket_heap else -1
            if far:
                fb = int_(far[0][0] * invtick)
                nb = fb if (tb < 0 or fb < tb) else tb
            elif tb < 0:
                return None
            else:
                nb = tb
            # One-bucket slack: entries of bucket nb may sit one float
            # ulp below nb*tick, so only stop when even that is > until.
            if (nb - 1) * tick > until_f:
                return None
            cur = nb
            merged = None
            if tb == nb:
                pop(bucket_heap)
                i = nb & mask
                bucket = wheel[i]
                wheel[i] = None
                merged = []
                ap = merged.append
                fr = free.append
                for e in bucket:
                    if e.__class__ is int:
                        if fns[e] is None:
                            fr(e)
                            freed += 1
                        else:
                            ap((whens[e], keys_a[e], False, e))
                    else:
                        ap(e)
            # Migrate far entries whose *bucket* has been reached; using
            # the same int(when/tick) everywhere keeps ordering exact.
            if far and int_(far[0][0] * invtick) <= nb:
                if merged is None:
                    merged = []
                ap = merged.append
                while far and int_(far[0][0] * invtick) <= nb:
                    ap(pop(far))
            if merged:
                merged.sort()
                return merged
            return ()

        def run(until: float | None = None, stop_on: Event | None = None) -> float:
            nonlocal now, disp, freed, peak, idx, run_list
            if self._running:
                raise SimulationError(
                    "simulator is already running (reentrant run)"
                )
            if until is not None and until < now:
                return now
            until_f = _INF if until is None else until
            sched_log = self._schedule_log
            self._running = True
            try:
                while True:
                    if stop_on is not None and stop_on.callbacks is None:
                        return now
                    n_run = len(run_list)
                    while True:
                        if idx < n_run:
                            e = run_list[idx]
                            if extra and extra[0] < e:
                                e = pop(extra)
                                from_run = False
                            else:
                                idx += 1
                                from_run = True
                        elif extra:
                            e = pop(extra)
                            from_run = False
                        else:
                            break
                        w = e[0]
                        if w > until_f:
                            # Un-consume: time stops here for this run.
                            if from_run:
                                idx -= 1
                            else:
                                push(extra, e)
                            now = self.now = until_f
                            return until_f
                        fn = e[2]
                        if fn is False:
                            slot = e[3]
                            fn = fns[slot]
                            if fn is None:
                                # Cancelled: consume the one reference,
                                # recycle the slot, never call anything.
                                free.append(slot)
                                freed += 1
                                continue
                            args = argss[slot]
                            fns[slot] = None
                            argss[slot] = None
                            free.append(slot)
                        else:
                            args = e[3]
                        pending = seq - disp - freed
                        if pending > peak:
                            peak = pending
                        now = self.now = w
                        disp += 1
                        if sched_log is not None:
                            key = e[1]
                            sched_log.append(
                                (w, (key >> _SEQ_BITS) - _PRIO_BIAS, key & _SEQ_MASK)
                            )
                        if args is None:
                            fn._dispatch()
                        else:
                            fn(*args)
                        if stop_on is not None and stop_on.callbacks is None:
                            return now
                    nxt = _advance(until_f)
                    idx = 0
                    if nxt is None:
                        run_list = []
                        if until is not None and until > now:
                            now = self.now = until
                        return now
                    run_list = nxt
            finally:
                self._running = False
        self.run = run

        def peek() -> float | None:
            nonlocal idx, freed
            best = None
            while idx < len(run_list):
                e = run_list[idx]
                if e[2] is False and fns[e[3]] is None:
                    free.append(e[3])
                    freed += 1
                    idx += 1
                    continue
                best = e[0]
                break
            while extra:
                e = extra[0]
                if e[2] is False and fns[e[3]] is None:
                    pop(extra)
                    free.append(e[3])
                    freed += 1
                    continue
                if best is None or e[0] < best:
                    best = e[0]
                break
            # Earliest live entry threaded through the wheel: bucket
            # index order is time order, so the first bucket with any
            # live entry decides. Dead slots are skipped but NOT freed
            # here — their one reference stays in the bucket for flush.
            for b in sorted(bucket_heap):
                found = None
                for e in wheel[b & mask]:
                    if e.__class__ is int:
                        if fns[e] is None:
                            continue
                        w = whens[e]
                    else:
                        w = e[0]
                    if found is None or w < found:
                        found = w
                if found is not None:
                    if best is None or found < best:
                        best = found
                    break
            while far:
                e = far[0]
                if e[2] is False and fns[e[3]] is None:
                    pop(far)
                    free.append(e[3])
                    freed += 1
                    continue
                if best is None or e[0] < best:
                    best = e[0]
                break
            return best
        self.peek = peek

        self._get_dispatched = lambda: disp
        self._get_cancelled = lambda: canc
        self._get_peak = lambda: peak
        self._get_pending = lambda: seq - disp - freed
        self._get_freed = lambda: freed
        self._get_capacity = lambda: len(fns)
        self._get_free = lambda: len(free)

    @property
    def dispatched(self) -> int:
        """Number of events dispatched so far."""
        return self._get_dispatched()

    def __repr__(self) -> str:
        return (
            f"<RingSimulator t={self.now:.6f} "
            f"pending={self._get_pending()}>"
        )
