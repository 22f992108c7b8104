"""Integration tests for the sharded SMaRt-SCADA deployment.

The transparency contract under test: callers use the exact same
Frontend/HMI API against N independent BFT groups as against one —
routing, scatter-gather and the global AE order are the proxies'
problem (the same seam the paper used to hide replication itself).
"""

from repro.core import (
    ShardedScadaConfig,
    SmartScadaSystem,
    build_sharded_scada,
    build_smartscada,
)
from repro.neoscada import HandlerChain, Monitor
from repro.shard import CORRELATED_ALARM
from repro.sim import Simulator

ITEMS = [f"plant.sensor-{i}" for i in range(8)]


def build(seed=1, shards=2, config=None, **kwargs):
    sim = Simulator(seed=seed)
    config = config or ShardedScadaConfig(shards=shards, **kwargs)
    system = build_sharded_scada(sim, config=config)
    return sim, system


def settle(sim, seconds=0.3):
    sim.run(until=sim.now + seconds)


def spanning_items(system, items=ITEMS):
    """Sanity: the fixture's items must actually span several groups."""
    shards = {system.shard_of(item) for item in items}
    assert len(shards) > 1, "fixture items all hash to one shard"
    return shards


def test_updates_route_to_owning_groups_and_reach_the_hmi():
    sim, system = build()
    for item in ITEMS:
        system.frontend.add_item(item, initial=0)
    system.start()
    spanning_items(system)
    for i, item in enumerate(ITEMS):
        system.frontend.inject_update(item, 100 + i)
    settle(sim)
    for i, item in enumerate(ITEMS):
        assert system.hmi.value_of(item) == 100 + i
    # Each update was executed only by its owning group: per-group
    # update counts must sum to the total (two per item: the initial
    # value published at subscribe time plus the injected one), not
    # multiply by it.
    per_shard = [
        sum(pm.master.stats["updates"] for pm in system.group(s)) // len(system.group(s))
        for s in range(system.shards)
    ]
    assert sum(per_shard) == 2 * len(ITEMS)
    assert all(count > 0 for count in per_shard)


def test_writes_route_to_the_owning_group():
    sim, system = build()
    for item in ITEMS:
        system.frontend.add_item(item, initial=0, writable=True)
    system.start()

    def operator():
        for i, item in enumerate(ITEMS[:4]):
            result = yield system.hmi.write(item, 50 + i)
            assert result.success, item
        return True

    sim.run_process(operator(), until=30)
    settle(sim)
    for i, item in enumerate(ITEMS[:4]):
        assert system.hmi.value_of(item) == 50 + i


def test_value_query_uses_the_unordered_fast_path_per_shard():
    sim, system = build()
    for item in ITEMS:
        system.frontend.add_item(item, initial=7)
    system.start()
    settle(sim)
    before = system.proxy_hmi.stats["unordered_reads"]

    def reader():
        for item in ITEMS[:4]:
            value = yield system.hmi.query_value(item)
            assert value.value == 7, item
        return True

    sim.run_process(reader(), until=30)
    assert system.proxy_hmi.stats["unordered_reads"] >= before + 4


def test_wildcard_event_query_scatters_and_merges_globally():
    sim, system = build()
    for item in ITEMS:
        system.frontend.add_item(item, initial=0)
        system.attach_handlers(item, lambda: HandlerChain([Monitor(high=80.0)]))
    system.start()

    def scenario():
        for item in ITEMS:
            system.frontend.inject_update(item, 95)
            yield sim.timeout(0.02)
        yield sim.timeout(0.5)
        events = yield system.hmi.query_events("*")
        return events

    events = sim.run_process(scenario(), until=30)
    assert system.proxy_hmi.stats["scatter_queries"] >= 1
    alarmed = [e.item_id for e in events if e.event_type == "alarm"]
    assert sorted(alarmed) == sorted(ITEMS)
    # The scatter-merge applies the global order rule: timestamps
    # non-decreasing across the merged reply.
    stamps = [e.timestamp for e in events]
    assert stamps == sorted(stamps)


def test_single_item_event_query_routes_to_one_group():
    sim, system = build()
    for item in ITEMS:
        system.frontend.add_item(item, initial=0)
        system.attach_handlers(item, lambda: HandlerChain([Monitor(high=80.0)]))
    system.start()

    def scenario():
        system.frontend.inject_update(ITEMS[0], 95)
        yield sim.timeout(0.3)
        scatters = system.proxy_hmi.stats["scatter_queries"]
        events = yield system.hmi.query_events(ITEMS[0])
        assert system.proxy_hmi.stats["scatter_queries"] == scatters
        return events

    events = sim.run_process(scenario(), until=30)
    assert [e.item_id for e in events if e.event_type == "alarm"] == [ITEMS[0]]


def test_alarm_pushes_arrive_in_global_order():
    sim, system = build()
    for item in ITEMS:
        system.frontend.add_item(item, initial=0)
        system.attach_handlers(item, lambda: HandlerChain([Monitor(high=80.0)]))
    system.start()

    def scenario():
        for item in ITEMS:
            system.frontend.inject_update(item, 95)
            yield sim.timeout(0.02)
        yield sim.timeout(0.5)
        return True

    sim.run_process(scenario(), until=30)
    system.flush_events()
    alarms = system.hmi.alarms()
    assert len(alarms) == len(ITEMS)
    stamps = [a.timestamp for a in alarms]
    assert stamps == sorted(stamps)
    merger = system.proxy_hmi.merger
    assert merger.stats["released"] == merger.stats["offered"] == len(ITEMS)


def test_router_caches_are_warm_after_the_first_resolution():
    sim, system = build()
    for item in ITEMS:
        system.frontend.add_item(item, initial=0)
    system.start()
    for _ in range(3):
        for item in ITEMS:
            system.frontend.inject_update(item, 1)
    settle(sim)
    stats = system.proxy_frontends[0].router.stats
    # One miss per distinct routed id; everything after is a dict hit.
    assert stats["hits"] > stats["misses"]
    assert stats["invalidations"] == 0


def test_browse_gathers_every_groups_items_into_one_reply():
    sim, system = build()
    for item in ITEMS:
        system.frontend.add_item(item, initial=0)
    system.start()  # HMI start() browses "*" through the proxy
    settle(sim)
    assert system.proxy_hmi._browse_gathers == []


def test_cross_shard_alarm_burst_raises_one_correlated_alarm():
    sim, system = build()
    for item in ITEMS:
        system.frontend.add_item(item, initial=0)
        system.attach_handlers(item, lambda: HandlerChain([Monitor(high=80.0)]))
    system.start()
    spanning_items(system)

    def scenario():
        # Alarms on every shard within one correlation window.
        for item in ITEMS:
            system.frontend.inject_update(item, 95)
            yield sim.timeout(0.02)
        yield sim.timeout(0.5)
        return True

    sim.run_process(scenario(), until=30)
    system.flush_events()
    correlator = system.proxy_hmi.correlator
    assert len(correlator.correlated) == 1
    synthetic = correlator.correlated[0]
    assert synthetic.event_type == CORRELATED_ALARM
    # The synthetic alarm reached the HMI's event log too.
    assert any(
        e.event_type == CORRELATED_ALARM for e in system.hmi.events
    )


def test_groups_converge_independently():
    sim, system = build()
    for item in ITEMS:
        system.frontend.add_item(item, initial=0)
    system.start()
    for item in ITEMS:
        system.frontend.inject_update(item, 3)
    settle(sim)
    for shard in range(system.shards):
        assert len(set(system.state_digests(shard))) == 1


def test_single_shard_build_degenerates_to_the_classic_topology():
    """Both entry points call ``build_sharded_scada`` and the proxies have
    one path, so one group is the classic topology: same handle, classic wire addresses and
    client ids, not one event more or less. The shard tier is trivial:
    every item routes to group 0, and the merger releases each alarm on
    offer without ever arming its holdback timer."""

    def run(deploy):
        sim = Simulator(seed=1)
        system = deploy(sim)
        for item in ITEMS:
            system.frontend.add_item(item, initial=0)
            system.attach_handlers(item, lambda: HandlerChain([Monitor(high=80.0)]))
        system.start()
        for item in ITEMS:
            system.frontend.inject_update(item, 95)
        settle(sim)
        assert all(system.hmi.value_of(item) == 95 for item in ITEMS)
        return system, sim.stats()["events_dispatched"]

    classic, classic_events = run(build_smartscada)
    fleet, fleet_events = run(
        lambda sim: build_sharded_scada(sim, config=ShardedScadaConfig(shards=1))
    )
    assert type(fleet) is type(classic) is SmartScadaSystem
    assert fleet.config == classic.config
    # Classic wire addresses and client ids: no shard namespace suffix.
    assert [pm.address for pm in fleet.proxy_masters] == [
        f"replica-{i}" for i in range(fleet.config.base.n)
    ]
    assert [c.client_id for c in fleet.proxy_hmi.bft_clients] == ["proxy-hmi-bft"]
    assert [c.client_id for c in fleet.proxy_frontends[0].bft_clients] == [
        "proxy-frontend-0-bft"
    ]
    merger = fleet.proxy_hmi.merger
    assert merger.stats["offered"] == merger.stats["released"] == len(ITEMS)
    assert merger.stats["peak_buffer"] == merger.stats["late"] == 0
    assert fleet.proxy_hmi.correlator.correlated == []
    routers = [fleet.proxy_hmi.router] + [pf.router for pf in fleet.proxy_frontends]
    assert {router.route(item) for router in routers for item in ITEMS} == {0}
    assert fleet_events == classic_events


def test_four_shard_build_stands_up_sixteen_replicas():
    sim, system = build(shards=4)
    assert len(system.proxy_masters) == 4 * system.config.base.n
    for item in ITEMS:
        system.frontend.add_item(item, initial=0)
    system.start()
    for i, item in enumerate(ITEMS):
        system.frontend.inject_update(item, i)
    settle(sim)
    for i, item in enumerate(ITEMS):
        assert system.hmi.value_of(item) == i
