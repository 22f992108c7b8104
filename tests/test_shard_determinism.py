"""Cross-shard determinism: the global AE order is a pure function of
the workload.

The rule (sort by consensus-assigned logical timestamp, shard id, then
per-shard commit order — :mod:`repro.shard.merge`) must yield the
*identical* alarm sequence no matter how the namespace is partitioned:
across seeds and across 1/2/4 shards. Event ids are per-group counters
and legitimately differ between partitionings, so the comparison is on
semantic tuples ``(item_id, event_type, value)``.
"""

import pytest

from repro.bftsmart.replica import ServiceReplica
from repro.neoscada import HandlerChain, Monitor
from repro.core import ShardedScadaConfig, build_sharded_scada
from repro.shard import merge_event_streams
from repro.sim import Simulator

ITEMS = [f"plant.sensor-{i}" for i in range(10)]
#: Update spacing (s). Comfortably larger than consensus latency, so the
#: logical-timestamp order of alarms is workload order, not racing.
SPACING = 0.02
SHARD_COUNTS = (1, 2, 4)


def run_workload(seed: int, shards: int):
    """One fixed alarm-heavy workload; returns (system, semantic seq)."""
    sim = Simulator(seed=seed)
    system = build_sharded_scada(sim, config=ShardedScadaConfig(shards=shards))
    for item in ITEMS:
        system.frontend.add_item(item, initial=0)
        system.attach_handlers(item, lambda: HandlerChain([Monitor(high=80.0)]))
    system.start()

    def workload():
        for rnd in range(3):
            for i, item in enumerate(ITEMS):
                # Every third item alarms each round; which third rotates.
                value = 95 if (i + rnd) % 3 == 0 else 20
                system.frontend.inject_update(item, value)
                yield sim.timeout(SPACING)
        yield sim.timeout(0.5)
        return True

    sim.run_process(workload(), until=60)
    system.flush_events()
    sequence = [
        (e.item_id, e.event_type, e.value)
        for e in system.hmi.events
        if e.event_type == "alarm"
    ]
    return system, sequence


def test_global_alarm_sequence_is_identical_across_everything():
    """The headline guarantee: seeds x shard counts, one order."""
    sequences = {}
    for seed in (1, 7):
        for shards in SHARD_COUNTS:
            _, seq = run_workload(seed, shards)
            sequences[(seed, shards)] = seq
    reference = sequences[(1, 1)]
    assert reference, "workload produced no alarms"
    divergent = {
        combo: seq for combo, seq in sequences.items() if seq != reference
    }
    assert not divergent, (
        f"global AE order diverged for {sorted(divergent)}; "
        f"reference={reference}"
    )


@pytest.mark.parametrize("shards", (2, 4))
def test_online_merger_matches_the_offline_merge(shards):
    """The live holdback merger must reproduce the ground-truth offline
    sort of the per-shard commit logs once the run quiesces."""
    system, _ = run_workload(seed=3, shards=shards)
    merger = system.proxy_hmi.merger
    online = [
        (shard, event.item_id, event.event_type)
        for shard, event in merger.released_events()
    ]
    # Ground truth: each group's commit-ordered event log (identical on
    # every replica of the group — take replica 0), merged offline.
    streams = [
        system.group(shard)[0].master.storage.query("*", limit=None)
        for shard in range(shards)
    ]
    offline = [
        (shard, event.item_id, event.event_type)
        for shard, event in merge_event_streams(streams)
    ]
    assert online == offline
    assert merger.stats["released"] == merger.stats["offered"]


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_reruns_are_bit_identical(shards):
    """Same seed, same shard count: byte-for-byte the same
    event stream, ids included (the §III-B determinism bar)."""
    _, first = run_workload(seed=5, shards=shards)
    system_a, _ = run_workload(seed=5, shards=shards)
    system_b, _ = run_workload(seed=5, shards=shards)
    full_a = [(e.event_id, e.item_id, e.timestamp) for e in system_a.hmi.events]
    full_b = [(e.event_id, e.item_id, e.timestamp) for e in system_b.hmi.events]
    assert full_a == full_b


def _overloaded_merge(seed: int):
    """Both groups saturated alike; returns the HMI-side merger."""
    sim = Simulator(seed=seed)
    system = build_sharded_scada(sim, config=ShardedScadaConfig(shards=2))
    owned: dict = {0: [], 1: []}
    for i in range(100):  # the same number of items in each group
        group = owned[system.shard_of(f"plant.sensor-{i}")]
        if len(group) < 4:
            group.append(f"plant.sensor-{i}")
    for item in owned[0] + owned[1]:
        system.frontend.add_item(item, initial=0)
        system.attach_handlers(item, lambda: HandlerChain([Monitor(high=80.0)]))
    system.start()

    def workload():  # 1200/s per group against Masters good for ~900/s
        for i in range(1200):
            group = owned[i % 2]
            value = 95 if i % 7 < 2 else 20 + (i // 8) % 2
            system.frontend.inject_update(group[(i // 2) % len(group)], value)
            yield sim.timeout(1 / 2400)
        yield sim.timeout(3.0)
        return True

    sim.run_process(workload(), until=60)
    system.flush_events()
    return system.proxy_hmi.merger


def test_overload_stragglers_are_exactly_the_declared_late_events(monkeypatch):
    """Under overload a leader packs tens of requests into one PROPOSE, and
    every event of a batch carries that PROPOSE's timestamp (§IV-C) while
    the batch takes tens of milliseconds to execute. Two saturated groups
    therefore push equal-stamped runs concurrently, and the online merger
    sees events older than what it already released. It never rewrites
    history: each one is released at once and counted ``late``. Without
    exactly those events the live sequence is the offline merge, and the
    whole sequence repeats for a seed. With one instance per request or
    two (no backpressure hold) the same run has no straggler at all."""
    merger = _overloaded_merge(seed=3)
    released = merger.released_events()
    assert merger.stats["released"] == merger.stats["offered"] == len(released)

    streams: list = [[], []]  # a shard's events are released in push order
    stragglers, greatest = set(), None
    for shard, event in released:
        key = (event.timestamp, shard, len(streams[shard]))
        streams[shard].append(event)
        if greatest is not None and key < greatest:
            stragglers.add((shard, event.event_id))
        else:
            greatest = key
    assert len(stragglers) == merger.stats["late"] > 0

    def on_time(sequence):
        return [
            (shard, event.event_id)
            for shard, event in sequence
            if (shard, event.event_id) not in stragglers
        ]

    assert on_time(released) == on_time(merge_event_streams(streams))

    again = _overloaded_merge(seed=3)
    assert [(s, e.event_id, e.timestamp) for s, e in again.released_events()] == [
        (s, e.event_id, e.timestamp) for s, e in released
    ]
    assert again.stats == merger.stats

    monkeypatch.setattr(ServiceReplica, "_held_back", lambda self: False)
    assert _overloaded_merge(seed=3).stats["late"] == 0
