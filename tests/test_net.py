"""Unit tests for the simulated network: delivery, latency, faults, trace."""

import pytest

from repro.net import (
    ConstantLatency,
    Delay,
    Drop,
    Duplicate,
    LanLatency,
    Network,
    NetworkTrace,
    Partition,
    Tamper,
    UniformLatency,
    UnknownEndpoint,
)
from repro.sim import Simulator


def make_net(trace: bool = False, latency: float = 0.001):
    sim = Simulator(seed=1)
    net = Network(
        sim,
        latency=ConstantLatency(latency),
        trace=NetworkTrace(enabled=trace),
    )
    return sim, net


def test_basic_delivery_to_handler_after_link_latency():
    sim, net = make_net()
    a = net.endpoint("a")
    b = net.endpoint("b")
    seen = []
    b.set_handler(lambda payload, src: seen.append((sim.now, payload)))
    a.send("b", "hello")
    sim.run()
    assert seen == [(0.001, "hello")]


def test_an_endpoint_without_handler_drops_deliveries():
    sim, net = make_net()
    a = net.endpoint("a")
    net.endpoint("b")
    a.send("b", "hello")
    assert sim.run() == 0.001
    assert net.delivered == 1


def test_delivery_to_handler():
    sim, net = make_net()
    a = net.endpoint("a")
    b = net.endpoint("b")
    seen = []
    b.set_handler(lambda payload, src: seen.append((payload, src)))
    a.send("b", {"k": 1})
    sim.run()
    assert seen == [({"k": 1}, "a")]


def test_send_to_unknown_endpoint_raises():
    sim, net = make_net()
    a = net.endpoint("a")
    with pytest.raises(UnknownEndpoint):
        a.send("ghost", "x")


def test_messages_on_one_link_keep_order_with_constant_latency():
    sim, net = make_net()
    a = net.endpoint("a")
    b = net.endpoint("b")
    seen = []
    b.set_handler(lambda payload, src: seen.append(payload))
    for i in range(10):
        a.send("b", i)
    sim.run()
    assert seen == list(range(10))


def test_link_override_changes_delay():
    sim, net = make_net(latency=1.0)
    a = net.endpoint("a")
    b = net.endpoint("b")
    net.set_link("a", "b", ConstantLatency(0.25))
    times = []
    b.set_handler(lambda payload, src: times.append(sim.now))
    a.send("b", "fast")
    sim.run()
    assert times == [0.25]


def test_local_pair_is_symmetric_and_fast():
    sim, net = make_net(latency=1.0)
    a = net.endpoint("hmi")
    b = net.endpoint("proxy-hmi")
    net.set_local_pair("hmi", "proxy-hmi")
    times = []
    b.set_handler(lambda payload, src: times.append(sim.now))
    a.set_handler(lambda payload, src: times.append(sim.now))
    a.send("proxy-hmi", 1)
    b.send("hmi", 2)
    sim.run()
    assert all(t < 0.001 for t in times)


def test_crashed_endpoint_receives_nothing():
    sim, net = make_net()
    a = net.endpoint("a")
    b = net.endpoint("b")
    seen = []
    b.set_handler(lambda payload, src: seen.append(payload))
    net.crash("b")
    a.send("b", "lost")
    sim.run()
    assert seen == []
    net.recover("b")
    a.send("b", "found")
    sim.run()
    assert seen == ["found"]


def test_crashed_endpoint_sends_nothing():
    sim, net = make_net()
    a = net.endpoint("a")
    b = net.endpoint("b")
    seen = []
    b.set_handler(lambda payload, src: seen.append(payload))
    net.crash("a")
    a.send("b", "x")
    sim.run()
    assert seen == []


def test_drop_rule_filters_by_kind():
    sim, net = make_net()
    a = net.endpoint("a")
    b = net.endpoint("b")
    seen = []
    b.set_handler(lambda payload, src: seen.append(payload))
    net.faults.add(Drop(kind="str"))
    a.send("b", "dropped")
    a.send("b", 42)
    sim.run()
    assert seen == [42]


def test_drop_rule_max_count_disarms():
    sim, net = make_net()
    a = net.endpoint("a")
    b = net.endpoint("b")
    seen = []
    b.set_handler(lambda payload, src: seen.append(payload))
    net.faults.add(Drop(dst="b", max_count=2))
    for i in range(5):
        a.send("b", i)
    sim.run()
    assert seen == [2, 3, 4]


def test_drop_rule_glob_patterns():
    sim, net = make_net()
    src = net.endpoint("client-1")
    seen = {}
    for name in ("replica-0", "replica-1", "other"):
        ep = net.endpoint(name)
        seen[name] = []
        ep.set_handler(lambda payload, _src, n=name: seen[n].append(payload))
    net.faults.add(Drop(dst="replica-*"))
    for name in seen:
        src.send(name, "m")
    sim.run()
    assert seen == {"replica-0": [], "replica-1": [], "other": ["m"]}


def test_delay_rule_adds_latency():
    sim, net = make_net(latency=0.001)
    a = net.endpoint("a")
    b = net.endpoint("b")
    times = []
    b.set_handler(lambda payload, src: times.append(sim.now))
    net.faults.add(Delay(0.5, dst="b"))
    a.send("b", "slow")
    sim.run()
    assert times == [pytest.approx(0.501)]


def test_duplicate_rule_delivers_copies():
    sim, net = make_net()
    a = net.endpoint("a")
    b = net.endpoint("b")
    seen = []
    b.set_handler(lambda payload, src: seen.append(payload))
    net.faults.add(Duplicate(copies=2, spacing=0.01))
    a.send("b", "dup")
    sim.run()
    assert seen == ["dup", "dup", "dup"]


def test_tamper_rule_rewrites_payload():
    sim, net = make_net()
    a = net.endpoint("a")
    b = net.endpoint("b")
    seen = []
    b.set_handler(lambda payload, src: seen.append(payload))
    net.faults.add(Tamper(lambda payload: payload + "-evil"))
    a.send("b", "msg")
    sim.run()
    assert seen == ["msg-evil"]


def test_partition_blocks_cross_group_until_heal():
    sim, net = make_net()
    for name in ("r0", "r1", "r2"):
        net.endpoint(name)
    seen = []
    net.endpoint("r2").set_handler(lambda payload, src: seen.append(payload))
    rule = net.faults.add(Partition([["r0", "r1"], ["r2"]]))
    net.endpoint("r0").send("r2", "blocked")
    sim.run()
    assert seen == []
    rule.heal()
    net.endpoint("r0").send("r2", "after-heal")
    sim.run()
    assert seen == ["after-heal"]


def test_partition_allows_intra_group():
    sim, net = make_net()
    for name in ("r0", "r1", "r2"):
        net.endpoint(name)
    seen = []
    net.endpoint("r1").set_handler(lambda payload, src: seen.append(payload))
    net.faults.add(Partition([["r0", "r1"], ["r2"]]))
    net.endpoint("r0").send("r1", "ok")
    sim.run()
    assert seen == ["ok"]


def test_probabilistic_drop_is_seeded():
    def run(seed):
        sim = Simulator(seed=seed)
        net = Network(sim, latency=ConstantLatency(0.001))
        a = net.endpoint("a")
        b = net.endpoint("b")
        seen = []
        b.set_handler(lambda payload, src: seen.append(payload))
        net.faults.add(Drop(probability=0.5))
        for i in range(100):
            a.send("b", i)
        sim.run()
        return seen

    assert run(3) == run(3)
    assert 20 < len(run(3)) < 80


def test_trace_records_hops():
    sim, net = make_net(trace=True)
    a = net.endpoint("a")
    b = net.endpoint("b")
    b.set_handler(lambda payload, src: None)
    a.send("b", "payload", kind="ItemUpdate")
    a.send("b", "payload2", kind="ItemUpdate")
    a.send("b", 1, kind="WriteValue")
    sim.run()
    assert net.trace.count() == 3
    assert net.trace.count(kind="ItemUpdate") == 2
    assert net.trace.path(kind="WriteValue") == [("a", "b")]
    assert net.trace.kinds() == {"ItemUpdate": 2, "WriteValue": 1}
    hop = net.trace.hops[0]
    assert hop.delivered_at > hop.sent_at
    assert hop.size > 0


def test_trace_disabled_records_nothing():
    sim, net = make_net(trace=False)
    a = net.endpoint("a")
    b = net.endpoint("b")
    b.set_handler(lambda payload, src: None)
    a.send("b", "x")
    sim.run()
    assert net.trace.count() == 0


def test_lan_latency_scales_with_size():
    model = LanLatency(base=0.0001, jitter=0.0, bandwidth=1_000_000.0)
    assert model.delay(0) == pytest.approx(0.0001)
    assert model.delay(1_000_000) == pytest.approx(1.0001)


def test_uniform_latency_band():
    import random

    model = UniformLatency(0.1, 0.2, random.Random(0))
    for _ in range(50):
        assert 0.1 <= model.delay(100) <= 0.2


def test_latency_validation():
    import random

    with pytest.raises(ValueError):
        ConstantLatency(-1)
    with pytest.raises(ValueError):
        UniformLatency(0.2, 0.1, random.Random(0))
    with pytest.raises(ValueError):
        LanLatency(bandwidth=0)


def test_fault_rule_validation():
    with pytest.raises(ValueError):
        Drop(probability=1.5)
    with pytest.raises(ValueError):
        Delay(-0.1)
    with pytest.raises(ValueError):
        Duplicate(copies=0)


def test_network_counters():
    sim, net = make_net()
    a = net.endpoint("a")
    b = net.endpoint("b")
    b.set_handler(lambda payload, src: None)
    net.faults.add(Drop(kind="int"))
    a.send("b", 1)
    a.send("b", "keep")
    sim.run()
    assert net.sent == 2
    assert net.delivered == 1
