"""Tests for the cluster builders and the reconfiguration Administrator."""

import pytest

from repro.bftsmart import (
    Administrator,
    CounterService,
    GroupConfig,
    RECONFIG_MARKER,
    Silent,
    build_group,
    build_proxy,
)
from repro.crypto import KeyStore
from repro.net import ConstantLatency, Network
from repro.sim import Simulator
from repro.wire import decode


def make_world():
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1)
    return sim, net, keystore, config


def test_build_group_gives_each_replica_its_own_service():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, CounterService, keystore)
    assert len(replicas) == 4
    services = {id(r.service) for r in replicas}
    assert len(services) == 4  # replication protects *independent* copies
    assert [r.address for r in replicas] == [f"replica-{i}" for i in range(4)]


def test_build_group_replicas_start_honest_and_misbehave_alone():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, CounterService, keystore)
    assert all(replica.behaviour is None for replica in replicas)
    replicas[2].behaviour = Silent()
    assert [replica.behaviour is None for replica in replicas] == [
        True, True, False, True
    ]


def test_build_proxy_view_matches_group():
    sim, net, keystore, config = make_world()
    proxy = build_proxy(sim, net, "c", config, keystore)
    assert proxy.view.addresses == config.addresses
    assert proxy.view.f == config.f


def test_administrator_operation_is_marked_and_signed():
    sim, net, keystore, config = make_world()
    proxy = build_proxy(sim, net, "admin-c", config, keystore)
    admin = Administrator(proxy, keystore)
    operation = admin.build_operation(join=("replica-4",), leave=("replica-1",))
    assert operation.startswith(RECONFIG_MARKER)
    request = decode(operation[len(RECONFIG_MARKER):])
    assert request.admin == "admin"
    assert request.join == ("replica-4",)
    assert request.leave == ("replica-1",)
    assert request.new_f == config.f
    assert len(request.signature) == 32


def test_administrator_updates_own_view_on_success():
    sim, net, keystore, config = make_world()
    build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "admin-c", config, keystore)
    admin = Administrator(proxy, keystore)
    from repro.bftsmart import ServiceReplica, View

    event = admin.reconfigure(join=("replica-4",))
    ServiceReplica(
        sim,
        net,
        "replica-4",
        config,
        CounterService(),
        keystore,
        view=View(1, config.addresses + ("replica-4",), 1),
    )
    sim.run(until=sim.now + 5, stop_on=event)
    assert event.ok
    assert proxy.view.view_id == 1
    assert "replica-4" in proxy.view.addresses
