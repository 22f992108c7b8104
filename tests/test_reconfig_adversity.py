"""Reconfiguration under adversity (satellite of the self-healing PR).

The recovery orchestrator leans on ``Administrator.reconfigure_checked``
in exactly the conditions where a naive admin console wedges: a leader
change in progress, a state transfer racing the membership change, the
suspect being the current leader. These tests pin that behaviour at the
BFT-SMaRt layer, plus the typed failure modes (rejected / timed-out).
"""

from repro.bftsmart import (
    Administrator,
    CounterService,
    GroupConfig,
    ServiceReplica,
    View,
    build_group,
    build_proxy,
)
from repro.crypto import KeyStore
from repro.net import ConstantLatency, Network
from repro.sim import Simulator
from repro.wire import decode, encode


def make_world(seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, request_timeout=0.4, sync_timeout=0.8)
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "admin-c", config, keystore)
    admin = Administrator(proxy, keystore)
    return sim, net, keystore, config, replicas, admin


def make_joiner(sim, net, keystore, config, admin, address="replica-4"):
    """A spare anticipating the post-join view (the orchestrator idiom)."""
    view = admin.proxy.view
    return ServiceReplica(
        sim,
        net,
        address,
        config,
        CounterService(),
        keystore,
        view=View(view.view_id + 1, view.addresses + (address,), view.f),
    )


def run_adds(sim, proxy, count):
    def client():
        result = None
        for _ in range(count):
            raw = yield proxy.invoke_ordered(encode(("add", 1)))
            result = decode(raw)
        return result

    return sim.run_process(client(), until=sim.now + 60)


def checked(sim, admin, horizon=30.0, **kwargs):
    event = admin.reconfigure_checked(**kwargs)
    sim.run(until=sim.now + horizon, stop_on=event)
    assert event.ok
    return event.value


def test_join_applies_during_leader_change():
    """A reconfiguration submitted while the group is electing a new
    leader must ride out the synchronization phase and still apply."""
    sim, net, keystore, config, replicas, admin = make_world(seed=11)
    net.crash("replica-0")  # forces a leader change to replica-1
    joiner = make_joiner(sim, net, keystore, config, admin)
    result = checked(sim, admin, join=("replica-4",))
    assert result.applied
    assert result.view_id == 1
    assert "replica-4" in result.view.addresses
    live = [r for r in replicas[1:]] + [joiner]
    sim.run(until=sim.now + 5)
    assert all(r.view.view_id == 1 for r in live)
    assert all(r.leader == "replica-1" for r in replicas[1:])


def test_join_races_inflight_state_transfer():
    """A membership change deciding while another replica is mid
    state-transfer must not corrupt either: the transfer completes and
    the transferring replica still installs the new view."""
    sim, net, keystore, config, replicas, admin = make_world(seed=12)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    net.crash("replica-2")
    run_adds(sim, proxy, 8)  # replica-2 misses these decisions
    net.recover("replica-2")
    joiner = make_joiner(sim, net, keystore, config, admin)
    result = checked(sim, admin, join=("replica-4",))
    assert result.applied
    sim.run(until=sim.now + 10)
    assert replicas[2].state_transfer.completed >= 1
    assert not replicas[2].state_transfer.in_progress
    assert replicas[2].view.view_id == 1
    assert joiner.view.view_id == 1
    assert run_adds(sim, proxy, 3) == 11


def test_join_then_leave_current_leader():
    """The orchestrator's evict flow applied to the leader itself: join a
    spare, then remove replica-0. The group must re-elect and stay live."""
    sim, net, keystore, config, replicas, admin = make_world(seed=13)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    run_adds(sim, proxy, 3)
    make_joiner(sim, net, keystore, config, admin)
    result = checked(sim, admin, join=("replica-4",))
    assert result.applied and result.view_id == 1
    result = checked(sim, admin, leave=("replica-0",))
    assert result.applied and result.view_id == 2
    assert "replica-0" not in result.view.addresses
    sim.run(until=sim.now + 5)
    assert not replicas[0].active  # a removed replica halts itself
    proxy.update_view(result.view)
    assert run_adds(sim, proxy, 5) == 8


def test_rejected_change_is_not_retried():
    """Shrinking the group below 3f+1 is refused deterministically; the
    checked path must surface the rejection without burning retries."""
    sim, net, keystore, config, replicas, admin = make_world(seed=14)
    result = checked(
        sim, admin, leave=("replica-2", "replica-3"), attempts=3
    )
    assert result.status == "rejected"
    assert result.attempts == 1
    assert all(r.view.view_id == 0 for r in replicas)


def test_unreachable_group_times_out():
    sim, net, keystore, config, replicas, admin = make_world(seed=15)
    for replica in replicas:
        replica.halt()
    result = checked(
        sim, admin, join=("replica-4",), timeout=0.3, attempts=2,
        horizon=60.0,
    )
    assert result.status == "timed-out"
    assert result.attempts == 2
    assert result.view_id is None
