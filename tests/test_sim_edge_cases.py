"""Edge-case tests for the simulation kernel not covered elsewhere."""

from repro.sim import Interrupted, Simulator


def test_call_later_event_value_is_none_not_result():
    sim = Simulator()
    event = sim.call_later(1.0, lambda: "ignored")
    sim.run()
    assert event.ok
    assert event.value is None


def test_interrupt_before_first_step_fails_process():
    sim = Simulator()

    def never_runs():
        yield sim.timeout(1.0)
        return "ran"

    proc = sim.process(never_runs())
    proc.interrupt("too-early")
    caught = {}
    proc.add_callback(lambda ev: caught.setdefault("exc", ev.exception))
    sim.run()
    assert isinstance(caught["exc"], Interrupted)


def test_double_interrupt_is_safe():
    sim = Simulator()

    def sleeper():
        try:
            yield sim.timeout(10.0)
        except Interrupted:
            return "interrupted-once"

    proc = sim.process(sleeper())
    sim.call_later(1.0, proc.interrupt)
    sim.call_later(1.0, proc.interrupt)
    sim.run(until=2.0)
    assert proc.value == "interrupted-once"


def test_process_waiting_on_failed_process_sees_exception():
    sim = Simulator()

    def child():
        yield sim.timeout(0.5)
        raise ValueError("child-broke")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            return f"caught:{exc}"

    proc = sim.process(parent())
    sim.run()
    assert proc.value == "caught:child-broke"


def test_rng_streams_are_independent_and_stable():
    sim_a = Simulator(seed=123)
    sim_b = Simulator(seed=123)
    a1 = [sim_a.rng.stream("x").random() for _ in range(5)]
    # Interleave another stream: must not perturb "x".
    sim_b.rng.stream("y").random()
    b1 = [sim_b.rng.stream("x").random() for _ in range(5)]
    assert a1 == b1


def test_rng_reset_restarts_streams():
    sim = Simulator(seed=5)
    first = sim.rng.stream("s").random()
    sim.rng.reset()
    assert sim.rng.stream("s").random() == first
    assert "s" in sim.rng


def test_peek_returns_next_event_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.call_later(3.5, lambda: None)
    assert sim.peek() == 3.5


def test_zero_delay_timeout_runs_in_order():
    sim = Simulator()
    order = []
    sim.call_later(0.0, order.append, "first")
    sim.timeout(0.0).add_callback(lambda ev: order.append("second"))
    sim.run()
    assert order == ["first", "second"]
