"""Unit tests for the simulation kernel (events, time, scheduling)."""

import pytest

from repro.sim import Event, SimulationError, Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_run_empty_heap_returns_now():
    sim = Simulator()
    assert sim.run() == 0.0


def test_run_until_advances_time_even_without_events():
    sim = Simulator()
    assert sim.run(until=5.0) == 5.0
    assert sim.now == 5.0


def test_call_later_runs_at_the_right_time():
    sim = Simulator()
    seen = []
    sim.call_later(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        sim.call_later(delay, order.append, delay)
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_same_time_events_fire_in_fifo_order():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.call_later(1.0, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.call_later(1.0, seen.append, "early")
    sim.call_later(10.0, seen.append, "late")
    sim.run(until=5.0)
    assert seen == ["early"]
    assert sim.now == 5.0
    sim.run()
    assert seen == ["early", "late"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-1.0, lambda: None)


def test_timeout_event_value():
    sim = Simulator()
    timeout = sim.timeout(4.0, value="done")
    sim.run()
    assert timeout.ok
    assert timeout.value == "done"


def test_negative_timeout_rejected():
    # One shared check in the kernel, one exception type (the Timeout
    # constructor used to pre-empt it with a ValueError).
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-0.1)


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)
    with pytest.raises(RuntimeError):
        event.fail(ValueError("x"))


def test_event_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(RuntimeError):
        _ = event.value


def test_fail_requires_exception_instance():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_unhandled_failed_event_raises_at_dispatch():
    sim = Simulator()
    event = sim.event()
    event.fail(ValueError("boom"))
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_defused_failed_event_does_not_raise():
    sim = Simulator()
    event = sim.event()
    event.defused = True
    event.fail(ValueError("boom"))
    sim.run()  # no raise


def test_callback_added_after_processing_still_runs():
    sim = Simulator()
    event = sim.event()
    event.succeed("v")
    sim.run()
    seen = []
    event.add_callback(lambda ev: seen.append(ev.value))
    sim.run()
    assert seen == ["v"]


def test_callback_added_after_failure_propagates_exception():
    # A late observer of an already-failed, undefused event must not
    # silently swallow the failure: the callback runs, then the
    # exception propagates exactly as it would have at _dispatch.
    sim = Simulator()
    event = sim.event()
    event.defused = True  # survive the original dispatch
    event.fail(ValueError("boom"))
    sim.run()
    event.defused = False  # late observer arrives with nobody handling it
    seen = []
    event.add_callback(lambda ev: seen.append(ev.exception))
    with pytest.raises(ValueError, match="boom"):
        sim.run()
    assert len(seen) == 1 and isinstance(seen[0], ValueError)


def test_late_callback_can_defuse_failed_event():
    sim = Simulator()
    event = sim.event()
    event.defused = True
    event.fail(ValueError("boom"))
    sim.run()
    event.defused = False

    def handler(ev):
        ev.defused = True  # late observer takes responsibility

    event.add_callback(handler)
    sim.run()  # no raise


def test_late_callback_on_defused_failure_runs_quietly():
    sim = Simulator()
    event = sim.event()
    event.defused = True
    event.fail(ValueError("boom"))
    sim.run()
    seen = []
    event.add_callback(lambda ev: seen.append(ev))
    sim.run()  # stays defused: callback runs, no raise
    assert seen == [event]


def test_dispatched_counter_increments():
    sim = Simulator()
    sim.call_later(1.0, lambda: None)
    sim.call_later(2.0, lambda: None)
    sim.run()
    assert sim.dispatched >= 2


def test_deterministic_repeat_runs():
    def build_and_run(seed):
        sim = Simulator(seed=seed)
        trace = []
        rng = sim.rng.stream("jitter")

        def tick(i):
            trace.append((round(sim.now, 9), i))
            if i < 20:
                sim.call_later(rng.random(), tick, i + 1)

        sim.call_later(0.0, tick, 0)
        sim.run()
        return trace

    assert build_and_run(7) == build_and_run(7)
    assert build_and_run(7) != build_and_run(8)
