"""Ring-kernel specifics: timer wheel, slot recycling, handle safety.

The kernel's ordering contract is covered by the schedule goldens
(``tests/test_golden_outputs.py``) and the sorted-list model in
``tests/property/test_kernel_equivalence.py``; these tests pin down the
mechanisms of the flat-array kernel — same-tick FIFO inside one wheel
bucket, stale handles against recycled slots, rotation across bucket
boundaries, far-heap migration and slot-capacity growth.
"""

import gc
import tracemalloc

import pytest

from repro.sim import RingSimulator, SimulationError, Simulator

TICK = RingSimulator.TICK
NSLOTS = RingSimulator.NSLOTS
HORIZON = TICK * NSLOTS


def test_same_tick_fifo_across_scheduling_apis():
    # Many occurrences at the same instant, mixed across the three
    # scheduling APIs: creation order is dispatch order.
    sim = Simulator()
    fired = []
    for i in range(30):
        if i % 3 == 0:
            sim.defer(0.25, fired.append, i)
        elif i % 3 == 1:
            sim.timer(0.25, fired.append, i)
        else:
            sim.call_later(0.25, fired.append, i)
    sim.run()
    assert fired == list(range(30))


def test_cancelled_slot_reuse_never_fires_stale_callable():
    sim = RingSimulator()
    stale = []
    live = []
    handles = [sim.timer(1.0, stale.append, i) for i in range(50)]
    for handle in handles:
        assert sim.cancel_timer(handle) is True
    # Run past the cancelled deadline so every dead slot is consumed and
    # recycled, then re-arm new timers into the recycled slots.
    sim.run(until=2.0)
    for i in range(50):
        sim.timer(1.0, live.append, i)
    # The old handles point at recycled slots now: cancelling through
    # them must not touch the new occupants (generation check).
    for handle in handles:
        assert sim.cancel_timer(handle) is False
    sim.run()
    assert stale == []
    assert live == list(range(50))


def test_cancel_through_stale_handle_after_fire_is_noop():
    sim = RingSimulator()
    fired = []
    handle = sim.timer(0.5, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.cancel_timer(handle) is False
    # Slot gets reused; the stale handle still refuses.
    sim.timer(0.5, fired.append, "b")
    assert sim.cancel_timer(handle) is False
    sim.run()
    assert fired == ["a", "b"]


def test_wheel_rotation_across_bucket_boundaries():
    # Deadlines straddling bucket edges, including exact k*TICK
    # boundaries and sub-tick offsets: global dispatch order must be by
    # time with FIFO ties.
    delays = []
    for k in (1, 2, 3, 5, 8, 13):
        delays += [k * TICK, k * TICK + 1e-7, k * TICK - 1e-7, k * TICK + TICK / 2]
    delays += [0.0, TICK / 3, 17 * TICK, 17 * TICK]

    sim = Simulator()
    fired = []
    for i, delay in enumerate(delays):
        sim.defer(delay, lambda i=i: fired.append((sim.now, i)))
    sim.run()
    assert fired == sorted((delay, i) for i, delay in enumerate(delays))


def test_rotation_reuses_wheel_slots_across_turns():
    # A periodic task stepping one bucket per firing for well over one
    # full wheel turn: every wrap lands in a bucket index already used
    # by the previous turn.
    sim = RingSimulator()
    count = [0]
    total = NSLOTS + NSLOTS // 2  # 1.5 turns

    def step():
        count[0] += 1
        if count[0] < total:
            sim.defer(TICK, step)

    sim.defer(TICK, step)
    sim.run()
    assert count[0] == total
    assert sim.now == pytest.approx(total * TICK)


def test_far_heap_migration_preserves_order():
    # Deadlines beyond the wheel horizon live on the far heap and must
    # interleave correctly with near deadlines once the wheel catches up.
    sim = Simulator()
    fired = []
    sim.defer(HORIZON * 2.5, fired.append, "far2")
    sim.defer(0.5, fired.append, "near")
    sim.defer(HORIZON * 1.25, fired.append, "far1")
    sim.timer(HORIZON + TICK / 2, fired.append, "far0")
    sim.run()
    assert fired == ["near", "far0", "far1", "far2"]


def test_cancelled_far_timer_never_fires():
    sim = RingSimulator()
    fired = []
    handle = sim.timer(HORIZON * 2, fired.append, "stale")
    sim.defer(1.0, fired.append, "ok")
    assert sim.cancel_timer(handle) is True
    sim.run()
    assert fired == ["ok"]
    assert sim.stats()["heap_pending"] == 0


def test_until_stops_mid_bucket_and_resumes():
    sim = RingSimulator()
    fired = []
    # Three occurrences inside one bucket; stop between them.
    base = 5 * TICK
    sim.defer(base + 0.1 * TICK, fired.append, "a")
    sim.defer(base + 0.5 * TICK, fired.append, "b")
    sim.defer(base + 0.9 * TICK, fired.append, "c")
    sim.run(until=base + 0.6 * TICK)
    assert fired == ["a", "b"]
    assert sim.now == base + 0.6 * TICK
    # Scheduling something earlier than the un-consumed entry while
    # stopped must not reorder the resumed dispatch.
    sim.defer(0.1 * TICK, fired.append, "between")
    sim.run()
    assert fired == ["a", "b", "between", "c"]


def test_peek_reports_the_next_live_occurrence():
    sim = Simulator()
    assert sim.peek() is None
    sim.defer(2.0, lambda: None)
    first = sim.call_later(1.0, lambda: None)
    far = sim.timer(HORIZON * 3, lambda: None)
    assert sim.peek() == 1.0
    first.cancel()
    assert sim.peek() == 2.0
    sim.run(until=2.5)
    assert sim.peek() == HORIZON * 3
    sim.cancel_timer(far)
    assert sim.peek() is None


def test_slot_capacity_grows_on_demand():
    sim = RingSimulator()
    fired = []
    count = 10_000  # several doublings past the initial 256 slots
    for i in range(count):
        sim.timer(1.0 + (i % 7) * 0.001, fired.append, i)
    stats = sim.stats()
    assert stats["slot_capacity"] >= count
    sim.run()
    assert len(fired) == count
    assert sim.stats()["slots_free"] == sim.stats()["slot_capacity"]


def test_fresh_ring_simulator_is_small():
    # Wheel buckets and slot arrays are allocated on demand, because a
    # process builds many simulators (the benchmark >= 6 per run) and each
    # sits in a closure<->instance cycle until a full collection: 8192
    # preallocated bucket lists would be ~0.8 MiB apiece.
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        sims = [RingSimulator(seed=i) for i in range(10)]
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sims) == 10
    assert after - before < 1.5 * 1024 * 1024


def test_priority_orders_same_time_entries():
    sim = Simulator()
    fired = []
    for label, priority in (("n0", 0), ("hi", -5), ("lo", 5), ("n1", 0)):
        event = sim.event()
        event.add_callback(lambda ev: fired.append(ev.value))
        event._value = label
        sim._enqueue(1.0, event, priority)
    sim.run()
    assert fired == ["hi", "n0", "n1", "lo"]


def test_ring_priority_range_is_validated():
    sim = RingSimulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        sim._enqueue(0.0, event, priority=64)
    with pytest.raises(SimulationError):
        sim._enqueue(0.0, sim.event(), priority=-65)


def test_ring_stats_keys_superset_of_heap():
    # The five counter names the heap kernel reported; bench/workloads.py
    # and the cancellation tests read them by key.
    assert {
        "events_dispatched",
        "timers_cancelled",
        "tombstones_skipped",
        "heap_peak",
        "heap_pending",
    } <= set(Simulator().stats())
