"""Tests for lazy timer cancellation and kernel determinism.

The kernel tombstones cancelled heap entries instead of removing them
(O(1) cancel) and the run loop discards tombstones when they surface.
These tests pin down the contract: a cancelled timer *never* fires, the
heap does not grow without bound under create/cancel churn, and the
kernel counters account for everything.
"""

import math

import pytest

from repro.sim import SimulationError, Simulator


def test_cancelled_call_never_fires():
    sim = Simulator()
    fired = []
    call = sim.call_later(1.0, fired.append, "nope")
    assert call.cancel() is True
    sim.run()
    assert fired == []
    assert not call.processed


def test_cancel_is_idempotent():
    sim = Simulator()
    call = sim.call_later(1.0, lambda: None)
    assert call.cancel() is True
    assert call.cancel() is False
    sim.run()


def test_cancel_after_firing_is_a_noop():
    sim = Simulator()
    fired = []
    call = sim.call_later(1.0, fired.append, "yes")
    sim.run()
    assert fired == ["yes"]
    assert call.cancel() is False


def test_cancelled_timeout_callbacks_never_run():
    sim = Simulator()
    seen = []
    timeout = sim.timeout(1.0, value="late")
    timeout.add_callback(lambda ev: seen.append(ev.value))
    assert timeout.cancel() is True
    sim.run()
    assert seen == []


def test_cancel_inside_run_skips_pending_entry():
    # Cancel a timer from another event firing at an earlier time: the
    # already-heaped entry must be skipped, not dispatched.
    sim = Simulator()
    fired = []
    timer = sim.call_later(2.0, fired.append, "stale")
    sim.call_later(1.0, timer.cancel)
    sim.run()
    assert fired == []
    assert sim.stats()["tombstones_skipped"] == 1


@pytest.mark.parametrize("delay", [float("nan"), math.inf, -math.inf, -0.001])
def test_call_later_rejects_bad_delays(delay):
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(delay, lambda: None)


@pytest.mark.parametrize("delay", [float("nan"), math.inf])
def test_succeed_rejects_non_finite_delays(delay):
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.event().succeed(delay=delay)


def test_peek_discards_tombstones():
    sim = Simulator()
    first = sim.call_later(1.0, lambda: None)
    sim.call_later(2.0, lambda: None)
    first.cancel()
    assert sim.peek() == 2.0
    assert sim.stats()["tombstones_skipped"] == 1


def test_heap_stays_bounded_under_timer_churn():
    """The retransmission pattern: arm a timer, finish early, cancel it.

    200 timers are created and cancelled, but at most a handful of
    entries are ever live-or-tombstoned on the heap at once because each
    round's tombstone surfaces (and is discarded) before the next rounds
    pile up. Without lazy-deletion accounting this is the pattern that
    used to leak stale callbacks into the dispatch stream.
    """
    sim = Simulator()
    stale = []
    rounds = 200

    def client():
        for _ in range(rounds):
            timer = sim.call_later(1.5, stale.append, sim.now)
            yield sim.timeout(1.0)  # "reply" arrives before the timer
            assert timer.cancel() is True

    sim.run_process(client())
    sim.run()  # drain the final round's tombstone
    stats = sim.stats()
    assert stale == []
    assert stats["timers_cancelled"] == rounds
    assert stats["tombstones_skipped"] == rounds
    assert stats["heap_pending"] == 0
    assert stats["heap_peak"] <= 5  # bounded, not O(rounds)


def test_stats_counters_account_for_every_entry():
    sim = Simulator()
    for i in range(10):
        sim.call_later(float(i), lambda: None)
    cancelled = [sim.call_later(20.0 + i, lambda: None) for i in range(4)]
    for call in cancelled:
        call.cancel()
    sim.run()
    stats = sim.stats()
    assert stats["events_dispatched"] == 10
    assert stats["timers_cancelled"] == 4
    assert stats["tombstones_skipped"] == 4
    assert stats["heap_pending"] == 0
    assert stats["heap_peak"] == 14


def test_same_seed_same_trace_under_cancellation_churn():
    def run_once():
        sim = Simulator(seed=3)
        order = []

        def proc(tag):
            for i in range(20):
                timer = sim.call_later(0.3, order.append, (tag, "stale", i))
                jitter = sim.rng.stream(tag).random() * 0.2
                yield sim.timeout(jitter)
                timer.cancel()
                order.append((tag, sim.now))

        for tag in ("a", "b", "c"):
            sim.process(proc(tag))
        sim.run()
        return order, sim.stats()

    first_order, first_stats = run_once()
    second_order, second_stats = run_once()
    assert first_order == second_order
    assert first_stats == second_stats
    assert not any(entry[1] == "stale" for entry in first_order)
