"""Integration tests for restart-from-disk recovery (the PR's tentpole).

Acceptance criteria exercised here:

- an intact-disk restart rejoins through WAL replay plus the *partial*
  log-tail transfer — never a full-snapshot install — and ships strictly
  fewer bytes than the wiped-disk (snapshot) path;
- torn / corrupt disks are caught by digest verification and fall back
  to the full transfer with no safety violation;
- a wiped disk behaves exactly like proactive rejuvenation;
- chaos campaigns stay bit-deterministic with durability on, for every
  fsync policy;
- storage counters surface through ``Simulator.stats()``.

The restart/rejuvenate cases also run through the other deployment entry
point (the sharded builder at one shard), at the bottom of the file.
"""

import pytest

from repro.chaos import run_scenario
from repro.core import SmartScadaConfig, build_smartscada
from repro.core.recovery import rejuvenate_replica, restart_replica
from repro.neoscada import HandlerChain, Monitor
from repro.core import ShardedScadaConfig, build_sharded_scada
from repro.sim import Simulator
from repro.storage import FSYNC_POLICIES


def classic(sim, config):
    return build_smartscada(sim, config=config)


def one_shard_fleet(sim, config):
    return build_sharded_scada(sim, config=ShardedScadaConfig(shards=1, base=config))


def build(seed=31, deploy=classic, **overrides):
    config = SmartScadaConfig(durability=True, **overrides)
    sim = Simulator(seed=seed)
    system = deploy(sim, config)
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


def power_cut(sim, system, index, disk, outage):
    """Power-cut replica ``index`` and let its peers advance without it."""
    system.proxy_masters[index].replica.halt()
    system.durable_storage[index].crash(disk)
    feed(sim, system, outage, base=40)  # peers decide without the victim


def crash_and_restart(sim, system, reconfigure, index, disk, outage=10):
    """Power-cut replica ``index``, let peers advance, reboot from disk."""
    power_cut(sim, system, index, disk, outage)
    return restart_replica(
        system, index, disk_fault=None, handler_config=reconfigure
    )


def cids_before_next_checkpoint(replica, interval):
    """Cids the group can still decide before ``(cid + 1) % interval == 0``."""
    return interval - 1 - (replica.last_decided + 1) % interval


def test_restart_requires_durable_deployment():
    sim = Simulator(seed=1)
    system = build_smartscada(sim, config=SmartScadaConfig())
    with pytest.raises(ValueError):
        restart_replica(system, 0)


def test_intact_restart_rejoins_without_full_snapshot(deploy=classic):
    sim, system, reconfigure = build(deploy=deploy)
    feed(sim, system, 12, base=120)  # some values alarm (>100)
    fresh = crash_and_restart(sim, system, reconfigure, 2, "intact")

    recovered = fresh.replica.recovered_from_disk
    assert recovered is not None and not recovered.damaged
    assert recovered.entries  # the WAL tail actually replayed

    feed(sim, system, 5, base=10)
    assert converge(sim, system)
    transfer = fresh.replica.state_transfer
    # The acceptance criterion: WAL replay + log-tail transfer ONLY.
    assert transfer.full_installs == 0
    assert transfer.partial_installs >= 1
    assert len(set(system.state_digests())) == 1


def test_intact_restart_ships_fewer_bytes_than_snapshot_path():
    def run(disk):
        sim, system, reconfigure = build(seed=47)
        feed(sim, system, 15, base=120)
        fresh = crash_and_restart(sim, system, reconfigure, 2, disk)
        feed(sim, system, 5, base=10)
        assert converge(sim, system)
        assert len(set(system.state_digests())) == 1
        return fresh.replica.state_transfer.bytes_installed

    tail_bytes = run("intact")
    snapshot_bytes = run("wiped")
    assert 0 < tail_bytes < snapshot_bytes


def test_intact_restart_recovers_checkpoint_plus_wal_tail(deploy=classic):
    # Frequent checkpoints: the victim's disk holds checkpoint + tail.
    interval = 8
    sim, system, reconfigure = build(
        seed=5, deploy=deploy, checkpoint_interval=interval
    )
    feed(sim, system, 12, base=120)
    victim = system.proxy_masters[2].replica
    assert -1 < victim.checkpoint_cid < victim.last_decided, (
        "the victim must crash holding a checkpoint plus a WAL tail: "
        f"checkpoint {victim.checkpoint_cid}, decided {victim.last_decided} "
        "— re-choose the feed count or the interval"
    )
    # Short outage, counted in cids (one update = one instance below
    # capacity): peers must not checkpoint past the victim's recovered
    # position, or log truncation forces the (correct) full fallback.
    outage = min(2, cids_before_next_checkpoint(victim, interval))
    assert outage >= 1, (
        f"the victim crashed at cid {victim.last_decided}, one short of a "
        f"checkpoint (interval {interval}): no outage fits — re-choose the "
        "feed count or the interval"
    )
    power_cut(sim, system, 2, "intact", outage)
    newest_peer_checkpoint = max(
        pm.replica.checkpoint_cid for pm in system.proxy_masters if pm.replica.active
    )
    assert newest_peer_checkpoint <= victim.last_decided, (
        f"precondition lost: a peer checkpointed at {newest_peer_checkpoint}, "
        f"past the victim's cid {victim.last_decided}; its log no longer "
        "covers the tail"
    )
    fresh = restart_replica(
        system, 2, disk_fault=None, handler_config=reconfigure
    )

    recovered = fresh.replica.recovered_from_disk
    assert not recovered.damaged
    assert recovered.checkpoint_cid >= 0  # snapshot loaded from disk...
    assert recovered.entries  # ...and the WAL tail on top

    feed(sim, system, 5, base=10)
    assert converge(sim, system)
    assert fresh.replica.state_transfer.full_installs == 0
    assert len(set(system.state_digests())) == 1


@pytest.mark.parametrize("disk", ["torn", "corrupt"])
def test_damaged_disk_falls_back_to_full_transfer(disk, deploy=classic):
    sim, system, reconfigure = build(seed=13, deploy=deploy, checkpoint_interval=8)
    feed(sim, system, 12, base=120)
    fresh = crash_and_restart(sim, system, reconfigure, 2, disk)

    recovered = fresh.replica.recovered_from_disk
    assert recovered.damaged  # the digest frame caught the lie
    assert "digest" in recovered.notes or "verification" in recovered.notes

    feed(sim, system, 5, base=10)
    assert converge(sim, system)
    assert fresh.replica.state_transfer.full_installs >= 1
    # Safety: the damaged disk never leaked into the replicated state.
    assert len(set(system.state_digests())) == 1


def test_wiped_restart_behaves_like_rejuvenation(deploy=classic):
    sim, system, reconfigure = build(seed=21, deploy=deploy)
    feed(sim, system, 10, base=120)
    fresh = crash_and_restart(sim, system, reconfigure, 2, "wiped")
    recovered = fresh.replica.recovered_from_disk
    assert recovered.checkpoint_cid == -1 and not recovered.entries

    # The reference: proactive rejuvenation of another replica.
    rejuvenated = rejuvenate_replica(system, 1, handler_config=reconfigure)
    feed(sim, system, 5, base=10)
    assert converge(sim, system)
    # Both came back through the same full-transfer path.
    assert fresh.replica.state_transfer.full_installs >= 1
    assert rejuvenated.replica.state_transfer.full_installs >= 1
    assert len(set(system.state_digests())) == 1


def test_reinstalled_disk_survives_a_second_crash(deploy=classic):
    """After a full-transfer fallback the disk is re-seeded; a second
    intact crash must recover from the *new* history, not the damaged
    pre-fallback one."""
    sim, system, reconfigure = build(seed=9, deploy=deploy, checkpoint_interval=8)
    feed(sim, system, 12, base=120)
    crash_and_restart(sim, system, reconfigure, 2, "corrupt")
    feed(sim, system, 5, base=10)
    assert converge(sim, system)

    fresh = crash_and_restart(sim, system, reconfigure, 2, "intact", outage=2)
    recovered = fresh.replica.recovered_from_disk
    assert not recovered.damaged
    feed(sim, system, 5, base=20)
    assert converge(sim, system)
    assert len(set(system.state_digests())) == 1


def test_storage_counters_surface_in_simulator_stats():
    sim, system, _ = build()
    feed(sim, system, 5)
    stats = sim.stats()
    assert "storage" in stats
    per_disk = stats["storage"]
    assert len(per_disk) == len(system.proxy_masters)
    for counters in per_disk.values():
        assert counters["appends"] > 0
        assert counters["fsyncs"] > 0  # every-decision default


@pytest.mark.parametrize("policy", FSYNC_POLICIES)
def test_campaigns_stay_deterministic_for_every_fsync_policy(policy):
    first = run_scenario("crash-restart-intact", seed=3, fsync_policy=policy)
    second = run_scenario("crash-restart-intact", seed=3, fsync_policy=policy)
    assert first.ok and second.ok
    assert first.fingerprint() == second.fingerprint()
    assert first.restarts == second.restarts == 1


def test_damaged_scenarios_hold_invariants():
    for name in ("crash-restart-torn", "crash-restart-corrupt",
                 "crash-restart-wiped"):
        report = run_scenario(name, seed=3)
        assert report.ok, (name, report.violated_invariants())
        (event,) = report.recoveries
        assert event["settled_at"] is not None


@pytest.mark.parametrize(
    "case",
    [
        test_intact_restart_rejoins_without_full_snapshot,
        test_intact_restart_recovers_checkpoint_plus_wal_tail,
        lambda deploy: test_damaged_disk_falls_back_to_full_transfer("torn", deploy),
        test_wiped_restart_behaves_like_rejuvenation,
        test_reinstalled_disk_survives_a_second_crash,
    ],
    ids=["intact", "checkpoint-plus-tail", "torn", "wiped", "second-crash"],
)
def test_same_recovery_through_the_sharded_entry_point(case):
    case(deploy=one_shard_fleet)
