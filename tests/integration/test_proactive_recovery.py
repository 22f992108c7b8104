"""Tests for proactive recovery (replica rejuvenation).

The ``rejuvenate_replica`` cases also run through the other deployment
entry point (the sharded builder at one shard), at the bottom of the file.
"""

import pytest

from repro.core import SmartScadaConfig, build_smartscada
from repro.core.recovery import RejuvenationScheduler, rejuvenate_replica
from repro.neoscada import HandlerChain, Monitor
from repro.core import ShardedScadaConfig, build_sharded_scada
from repro.sim import Simulator


def classic(sim, config):
    return build_smartscada(sim, config=config)


def one_shard_fleet(sim, config):
    return build_sharded_scada(sim, config=ShardedScadaConfig(shards=1, base=config))


def build(seed=31, deploy=classic):
    sim = Simulator(seed=seed)
    system = deploy(sim, SmartScadaConfig())
    system.frontend.add_item("sensor", initial=0)
    system.frontend.add_item("actuator", initial=0, writable=True)
    system.attach_handlers("sensor", lambda: HandlerChain([Monitor(high=100.0)]))
    system.start()

    def reconfigure(proxy_master):
        proxy_master.attach_handlers("sensor", HandlerChain([Monitor(high=100.0)]))

    return sim, system, reconfigure


def feed(sim, system, count, base=0):
    for i in range(count):
        system.frontend.inject_update("sensor", base + i)
        sim.run(until=sim.now + 0.02)


def converge(sim, system, seconds=20.0):
    deadline = sim.now + seconds
    while sim.now < deadline:
        sim.run(until=sim.now + 0.5)
        live = [pm.replica for pm in system.proxy_masters if pm.replica.active]
        if len({r.last_decided for r in live}) == 1 and len(
            {r.executed_cid for r in live}
        ) == 1:
            return True
    return False


def test_single_rejuvenation_recovers_full_state(deploy=classic):
    sim, system, reconfigure = build(deploy=deploy)
    feed(sim, system, 10, base=140)  # some values alarm (>100)
    old_storage = system.masters[0].storage.total_written
    assert old_storage > 0

    fresh = rejuvenate_replica(system, 2, handler_config=reconfigure)
    assert fresh.master.storage.total_written == 0  # pristine
    feed(sim, system, 5, base=10)
    assert converge(sim, system)
    assert fresh.replica.state_transfer.completed >= 1
    # The fresh replica recovered the alarm history and item values.
    assert fresh.master.storage.total_written >= old_storage
    assert len(set(system.state_digests())) == 1


def test_rejuvenated_replica_votes_in_logical_timeout(deploy=classic):
    """The new incarnation's adapter client must be heard (sequence-start
    regression guard)."""
    from repro.net import Drop

    sim, system, reconfigure = build(deploy=deploy)
    feed(sim, system, 3)
    for index in range(2):
        rejuvenate_replica(system, index, handler_config=reconfigure)
    feed(sim, system, 3, base=50)
    assert converge(sim, system)

    system.net.faults.add(Drop(dst="frontend-0", kind="WriteValue"))

    def operator():
        result = yield system.hmi.write("actuator", 1)
        return result

    result = sim.run_process(operator(), until=sim.now + 30)
    assert not result.success
    assert "logical timeout" in result.reason


def test_scheduler_cycles_all_replicas():
    sim, system, reconfigure = build()

    def traffic():
        value = 0
        while True:
            yield sim.timeout(0.05)
            value += 1
            system.frontend.inject_update("sensor", value % 90)

    sim.process(traffic())
    scheduler = RejuvenationScheduler(
        system, period=3.0, handler_config=reconfigure, settle_time=2.0
    )
    scheduler.start()
    # One cycle = period + settle_time = 5 s; rejuvenations at t=3,8,13,18.
    sim.run(until=sim.now + 21)
    scheduler.stop()
    assert scheduler.rejuvenations == 4
    assert scheduler.recovered_in_time >= 3
    assert converge(sim, system)
    assert len(set(system.state_digests())) == 1


def test_back_to_back_installs_do_not_lose_history():
    """Regression: when a second state-transfer install lands while the
    first install's replay is still executing, the stale backlog (and the
    one request in flight at that instant) must not execute against the
    freshly installed state — it would poison the dedup table and make
    the second replay silently skip part of the history."""
    sim, system, reconfigure = build(seed=77)
    # Enough history that the replay takes real simulated time.
    feed(sim, system, 120, base=90)  # values 90..209; >100 alarm
    events_expected = system.masters[0].storage.total_written
    assert events_expected > 50

    fresh = rejuvenate_replica(system, 1, handler_config=reconfigure)
    # Keep deciding while the replay runs so the retry path triggers a
    # second install mid-replay.
    feed(sim, system, 40, base=90)
    assert converge(sim, system, seconds=30)
    assert fresh.replica.state_transfer.completed >= 1
    assert (
        fresh.master.storage.total_written
        == system.masters[0].storage.total_written
    )
    assert len(set(system.state_digests())) == 1


def test_rejuvenation_under_fire(deploy=classic):
    """Rejuvenate while a WriteResult drop attack is active and a write is
    in flight: the §IV-D logical timeout must still unblock the operator,
    and the fresh replica must state-transfer back to convergence."""
    from repro.net import Drop

    sim, system, reconfigure = build(seed=13, deploy=deploy)
    feed(sim, system, 5)
    # The field executes writes but its results never come back.
    rule = system.net.faults.add(Drop(src="frontend-0", kind="WriteResult"))

    def operator():
        result = yield system.hmi.write("actuator", 7)
        return result

    process = sim.process(operator())
    sim.run(until=sim.now + 0.2)  # write enters the total order...
    fresh = rejuvenate_replica(system, 1, handler_config=reconfigure)
    sim.run(until=sim.now + 30)
    result = process.value

    assert not result.success
    assert "logical timeout" in result.reason
    system.net.faults.remove(rule)
    feed(sim, system, 5, base=30)
    assert converge(sim, system)
    assert fresh.replica.state_transfer.completed >= 1
    assert len(set(system.state_digests())) == 1


def test_scheduler_skips_slot_when_group_degraded():
    """Rejuvenation takes a replica out on purpose; with another replica
    already down the scheduler must skip the slot, not erode the quorum."""
    sim, system, reconfigure = build(seed=41)
    feed(sim, system, 3)
    system.proxy_masters[3].replica.halt()
    scheduler = RejuvenationScheduler(
        system, period=2.0, handler_config=reconfigure, settle_time=1.0
    )
    scheduler.start()
    sim.run(until=sim.now + 7)
    scheduler.stop()
    assert scheduler.rejuvenations == 0
    assert scheduler.skipped >= 2
    assert all("down" in entry["reason"] for entry in scheduler.skip_log)


def test_scheduler_defers_to_external_guard():
    """An orchestrator-supplied veto (mid-eviction, say) must win over
    the timer: every slot is skipped and logged while the guard holds."""
    sim, system, reconfigure = build(seed=42)
    feed(sim, system, 3)
    scheduler = RejuvenationScheduler(
        system,
        period=2.0,
        handler_config=reconfigure,
        settle_time=1.0,
        guard=lambda: "recovery action in flight",
    )
    scheduler.start()
    sim.run(until=sim.now + 7)
    scheduler.stop()
    assert scheduler.rejuvenations == 0
    assert scheduler.skipped >= 2
    assert all(
        entry["reason"] == "recovery action in flight"
        for entry in scheduler.skip_log
    )
    assert converge(sim, system)


def test_scheduler_validation():
    sim, system, _ = build()
    with pytest.raises(ValueError):
        RejuvenationScheduler(system, period=0)
    scheduler = RejuvenationScheduler(system, period=1.0)
    scheduler.start()
    with pytest.raises(RuntimeError):
        scheduler.start()


@pytest.mark.parametrize(
    "case",
    [
        test_single_rejuvenation_recovers_full_state,
        test_rejuvenated_replica_votes_in_logical_timeout,
        test_rejuvenation_under_fire,
    ],
    ids=lambda case: case.__name__,
)
def test_same_rejuvenation_through_the_sharded_entry_point(case):
    case(deploy=one_shard_fleet)
