"""Property test: the kernel is observationally equal to a sorted list.

Random scheduling scripts — mixes of ``defer``/``timer``/``call_later``,
cancellations (including double-cancels and cancels issued *during* the
run), nested re-scheduling from inside callbacks, and delays sampled to
hit the ring kernel's interesting regimes (zero, sub-tick, exact bucket
boundaries, and beyond the 8.192 s wheel horizon) — must produce the
identical fired sequence and the identical ``(time, priority, seq)``
dispatch schedule on the kernel and on :class:`ModelSimulator`, the
kernel's contract written as plainly as it can be.
"""

from bisect import insort

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import RingSimulator, Simulator

TICK = RingSimulator.TICK
HORIZON = TICK * RingSimulator.NSLOTS

# Delays chosen to exercise every wheel regime: same-bucket ties, exact
# k*TICK bucket edges, float dust around the edges, far-heap deadlines.
delays = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=TICK, allow_nan=False),
    st.integers(min_value=1, max_value=40).map(lambda k: k * TICK),
    st.integers(min_value=1, max_value=40).map(lambda k: k * TICK + 1e-7),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=HORIZON, max_value=HORIZON * 3, allow_nan=False),
)

# A script step: (op, delay, extra). ``extra`` indexes into previously
# created cancellable timers (for "cancel") or picks a nested-op shape.
steps = st.lists(
    st.tuples(
        st.sampled_from(["defer", "timer", "call_later", "cancel", "nested"]),
        delays,
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=30,
)


class ModelSimulator:
    """The reference: pending occurrences in one list kept sorted by
    ``(when, priority, seq)``; one ``seq`` per scheduling call; the head
    fires while it is due; a cancelled occurrence is simply removed."""

    def __init__(self):
        self.now = 0.0
        self.dispatched = 0
        self._seq = 0
        self._pending = []  # [when, priority, seq, fn, args]; fn None = dead
        self._schedule_log = []

    def timer(self, delay, fn, *args):
        self._seq += 1
        entry = [self.now + delay, 0, self._seq, fn, args]
        insort(self._pending, entry)  # seq is unique: fn is never compared
        return entry

    defer = call_later = timer

    def cancel_timer(self, entry):
        if entry[3] is None:  # already fired or cancelled
            return False
        self._pending.remove(entry)
        entry[3] = None
        return True

    def run(self, until=None):
        pending = self._pending
        while pending and (until is None or pending[0][0] <= until):
            entry = pending.pop(0)
            self.now, priority, seq, fn, args = entry
            entry[3] = None
            self.dispatched += 1
            self._schedule_log.append((self.now, priority, seq))
            fn(*args)
        if until is not None:
            self.now = until


def run_script(sim, script, stop_at):
    log = sim._schedule_log = []
    fired = []
    handles = []

    def apply(step, tag):
        op, delay, extra = step
        if op == "defer":
            sim.defer(delay, fired.append, tag)
        elif op == "timer":
            handles.append(sim.timer(delay, fired.append, tag))
        elif op == "call_later":
            handles.append(sim.call_later(delay, fired.append, tag))
        elif op == "cancel":
            if handles:
                handle = handles[extra % len(handles)]
                fired.append(("cancel", tag, sim.cancel_timer(handle)))
            else:
                sim.defer(delay, fired.append, tag)
        else:  # nested: schedule more work (and a cancel) from a callback
            def nested(tag=tag, delay=delay, extra=extra):
                fired.append(("nested", tag))
                sim.defer(delay, fired.append, (tag, "inner"))
                if handles:
                    handle = handles[extra % len(handles)]
                    fired.append(("nested-cancel", tag, sim.cancel_timer(handle)))

            sim.defer(delay, nested)

    for i, step in enumerate(script):
        apply(step, i)
    sim.run(until=stop_at)
    stopped = (sim.dispatched, sim.now)
    sim.run()  # drain the remainder, covering the stop/resume path
    return fired, log, stopped, sim.dispatched, sim.now


@settings(max_examples=60, deadline=None)
@given(steps, st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
def test_random_scripts_fire_identically(script, stop_at):
    assert run_script(Simulator(seed=3), script, stop_at) == run_script(
        ModelSimulator(), script, stop_at
    )
