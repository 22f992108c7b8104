"""Unit tests for FIFO channels."""

import pytest

from repro.sim import Channel, ChannelClosed, Simulator


def test_put_then_get_unbounded():
    sim = Simulator()
    ch = Channel(sim)

    def producer():
        yield ch.put("x")
        yield ch.put("y")

    def consumer():
        a = yield ch.get()
        b = yield ch.get()
        return [a, b]

    sim.process(producer())
    proc = sim.process(consumer())
    sim.run()
    assert proc.value == ["x", "y"]


def test_get_blocks_until_put():
    sim = Simulator()
    ch = Channel(sim)

    def consumer():
        item = yield ch.get()
        return (sim.now, item)

    def producer():
        yield sim.timeout(3.0)
        yield ch.put("late")

    proc = sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert proc.value == (3.0, "late")


def test_fifo_ordering_of_items():
    sim = Simulator()
    ch = Channel(sim)
    for i in range(10):
        ch.put(i)
    got = []

    def consumer():
        for _ in range(10):
            item = yield ch.get()
            got.append(item)

    sim.process(consumer())
    sim.run()
    assert got == list(range(10))


def test_multiple_getters_served_in_order():
    sim = Simulator()
    ch = Channel(sim)
    results = {}

    def consumer(name):
        item = yield ch.get()
        results[name] = item

    sim.process(consumer("first"))
    sim.process(consumer("second"))
    sim.run()
    ch.put("a")
    ch.put("b")
    sim.run()
    assert results == {"first": "a", "second": "b"}


def test_bounded_put_blocks_until_space():
    sim = Simulator()
    ch = Channel(sim, capacity=1)
    times = []

    def producer():
        yield ch.put(1)
        times.append(sim.now)
        yield ch.put(2)
        times.append(sim.now)

    def consumer():
        yield sim.timeout(5.0)
        yield ch.get()

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert times == [0.0, 5.0]


def test_try_put_respects_capacity():
    sim = Simulator()
    ch = Channel(sim, capacity=2)
    assert ch.try_put(1)
    assert ch.try_put(2)
    assert not ch.try_put(3)
    assert len(ch) == 2


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(ValueError):
        Channel(sim, capacity=0)


def test_close_fails_blocked_getter():
    sim = Simulator()
    ch = Channel(sim)

    def consumer():
        try:
            yield ch.get()
        except ChannelClosed:
            return "closed"
        return "got-item"

    proc = sim.process(consumer())
    sim.call_later(1.0, ch.close)
    sim.run()
    assert proc.value == "closed"


def test_close_delivers_buffered_items_first():
    sim = Simulator()
    ch = Channel(sim)
    ch.put("remaining")
    ch.close()

    def consumer():
        item = yield ch.get()
        return item

    proc = sim.process(consumer())
    sim.run()
    assert proc.value == "remaining"


def test_put_after_close_fails():
    sim = Simulator()
    ch = Channel(sim)
    ch.close()
    event = ch.put("x")
    assert event.triggered and not event.ok
    event.defused = True
    assert not ch.try_put("y")


def test_cancelled_get_does_not_consume_item():
    sim = Simulator()
    ch = Channel(sim)

    def racer():
        # Race a get against a short timeout; the timeout wins.
        winner = yield sim.any_of([ch.get(), sim.timeout(1.0, "timeout")])
        return winner

    proc = sim.process(racer())
    sim.run()
    assert proc.value == (1, "timeout")
    # The cancelled get must not swallow this item.
    ch.put("item")
    got = []

    def consumer():
        item = yield ch.get()
        got.append(item)

    sim.process(consumer())
    sim.run()
    assert got == ["item"]


def test_cancelled_put_does_not_deliver_item():
    sim = Simulator()
    ch = Channel(sim, capacity=1)
    ch.put("first")

    def racer():
        # The channel is full: the put blocks and the timeout wins.
        winner = yield sim.any_of([ch.put("late"), sim.timeout(1.0, "timeout")])
        return winner

    proc = sim.process(racer())
    sim.run()
    assert proc.value == (1, "timeout")
    # Making room must not let the cancelled put in.
    event = ch.get()
    sim.run()
    assert event.value == "first"
    assert len(ch) == 0


def test_get_with_timeout_winning_get():
    sim = Simulator()
    ch = Channel(sim)
    ch.put("present")

    def racer():
        winner = yield sim.any_of([ch.get(), sim.timeout(1.0, "timeout")])
        return winner

    proc = sim.process(racer())
    sim.run()
    assert proc.value == (0, "present")
