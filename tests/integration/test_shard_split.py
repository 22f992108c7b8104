"""Integration: live shard splits — migrating items between groups
under traffic, optionally growing the target group through the signed
reconfiguration protocol (:mod:`repro.core.split`)."""

from repro.core import SmartScadaConfig
from repro.core.recovery import rejuvenate_replica, restart_replica
from repro.neoscada import HandlerChain, Monitor
from repro.core import ShardSplitter, ShardedScadaConfig, build_sharded_scada
from repro.sim import Simulator

ITEMS = [f"plant.sensor-{i}" for i in range(8)]


def build(seed=1, shards=2, **base):
    sim = Simulator(seed=seed)
    config = ShardedScadaConfig(shards=shards, base=SmartScadaConfig(**base))
    system = build_sharded_scada(sim, config=config)
    for item in ITEMS:
        system.frontend.add_item(item, initial=10)
        system.attach_handlers(item, lambda: HandlerChain([Monitor(high=80.0)]))
    system.start()
    return sim, system


def moving_set(system, target, count=2):
    moved = [i for i in ITEMS if system.shard_of(i) != target][:count]
    assert len(moved) == count, "fixture items do not span the shards"
    return moved


def test_split_migrates_items_with_history_under_traffic():
    sim, system = build()
    target = 1
    moved = moving_set(system, target)
    splitter = ShardSplitter(system)

    def traffic():
        # Continuous updates on every item while the split runs.
        for round_no in range(40):
            for item in ITEMS:
                system.frontend.inject_update(item, 20 + round_no)
            yield sim.timeout(0.05)

    def flow():
        # Seed an alarm on a moving item so event history must migrate.
        system.frontend.inject_update(moved[0], 95)
        yield sim.timeout(0.3)
        report = yield from splitter.split(moved, target)
        yield sim.timeout(0.5)
        return report

    sim.process(traffic(), name="traffic")
    report = sim.run_process(flow(), until=60)

    assert report.status == "completed"
    assert report.moved_items == len(moved)
    assert report.moved_events >= 1  # the alarm's history moved too
    assert report.epoch == system.shard_map.epoch == 1
    assert not report.grew_target
    # Ownership actually changed, cache epochs included.
    for item in moved:
        assert system.shard_of(item) == target
    # The target group's Masters now hold the items; the source's don't.
    target_master = system.group(target)[0].master
    source_master = system.group(1 - target)[0].master
    for item in moved:
        assert item in target_master.items
        assert item not in source_master.items
    # The migrated alarm history answers queries on the new owner.
    assert any(
        e.event_type == "alarm"
        for e in target_master.storage.query(moved[0], limit=None)
    )


def test_post_split_traffic_routes_to_the_new_owner():
    sim, system = build()
    target = 0
    moved = moving_set(system, target)
    splitter = ShardSplitter(system)

    def flow():
        report = yield from splitter.split(moved, target)
        assert report.status == "completed"
        yield sim.timeout(0.2)
        before = [
            pm.master.stats["updates"] for pm in (system.group(0)[0], system.group(1)[0])
        ]
        for item in moved:
            system.frontend.inject_update(item, 55)
        yield sim.timeout(0.3)
        after = [
            pm.master.stats["updates"] for pm in (system.group(0)[0], system.group(1)[0])
        ]
        return before, after

    before, after = sim.run_process(flow(), until=60)
    # All post-split updates for the moved items landed on the target.
    assert after[target] == before[target] + len(moved)
    assert after[1 - target] == before[1 - target]
    for item in moved:
        assert system.hmi.value_of(item) == 55


def test_split_invalidates_every_router_cache_once():
    sim, system = build()
    target = 1
    moved = moving_set(system, target)
    splitter = ShardSplitter(system)

    def flow():
        # Warm the caches first.
        for item in ITEMS:
            system.frontend.inject_update(item, 30)
        yield sim.timeout(0.3)
        report = yield from splitter.split(moved, target)
        assert report.status == "completed"
        for item in ITEMS:
            system.frontend.inject_update(item, 31)
        yield sim.timeout(0.3)
        return True

    sim.run_process(flow(), until=60)
    router = system.proxy_frontends[0].router
    assert router.stats["invalidations"] == 1
    # Warm again after the one-shot invalidation: hits keep growing.
    assert router.stats["hits"] > 0


def test_split_can_grow_the_target_group():
    sim, system = build()
    target = 1
    moved = moving_set(system, target)
    n = system.config.base.n
    splitter = ShardSplitter(system)

    def flow():
        report = yield from splitter.split(moved, target, grow_target=True)
        yield sim.timeout(2.0)
        return report

    report = sim.run_process(flow(), until=60)
    assert report.status == "completed"
    assert report.grew_target
    assert report.join_view_id == 1
    grown = system.group(target)
    assert len(grown) == n + 1
    # The joined spare is a full group member: caught up, configured
    # (handler chains reapplied), digest-identical with its peers.
    assert len(set(system.state_digests(target))) == 1
    # The other group was never touched.
    assert len(system.group(1 - target)) == n


def test_replicas_provisioned_after_deploy_inherit_the_attached_chains():
    """Handler chains are configuration the deployment remembers: every
    replica booted after deploy time gets them back without the caller
    passing a ``handler_config`` (the heal spare's turn is in
    ``tests/test_heal_orchestrator.py``)."""
    sim, system = build(durability=True)
    originals = [pm.master.chains for pm in system.proxy_masters]
    rejuvenated = rejuvenate_replica(system, 1)
    restarted = restart_replica(system, 6)
    report = sim.run_process(
        ShardSplitter(system).split(moving_set(system, 1), 1, grow_target=True),
        until=60,
    )
    assert report.grew_target
    spare = system.proxy_masters[-1]
    assert spare.address == "s1-replica-4" and spare.replica.storage is not None
    for pm in (rejuvenated, restarted, spare):
        assert sorted(pm.master.chains) == ITEMS
        # Fresh instances: handler state is never shared between replicas.
        assert all(
            pm.master.chains[item] is not chains[item]
            for chains in originals
            for item in ITEMS
        )
    sim.run(until=sim.now + 2.0)
    for shard in range(2):
        assert len(set(system.state_digests(shard))) == 1


def test_split_of_already_owned_items_is_a_noop_migration():
    sim, system = build()
    target = 1
    owned = [i for i in ITEMS if system.shard_of(i) == target][:2]
    splitter = ShardSplitter(system)

    def flow():
        report = yield from splitter.split(owned, target)
        return report

    report = sim.run_process(flow(), until=30)
    assert report.status == "completed"
    assert report.moved_items == 0
    assert not report.sources


def test_splitter_keeps_an_audit_trail():
    sim, system = build()
    splitter = ShardSplitter(system)
    moved = moving_set(system, 1)

    def flow():
        yield from splitter.split(moved[:1], 1)
        yield from splitter.split(moved[1:], 1)
        return True

    sim.run_process(flow(), until=60)
    assert len(splitter.reports) == 2
    as_dicts = [r.as_dict() for r in splitter.reports]
    assert all(d["status"] == "completed" for d in as_dicts)
    assert system.shard_map.epoch == 2
