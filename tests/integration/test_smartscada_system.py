"""Integration tests for the full SMaRt-SCADA deployment.

Exercises the replicated use cases of §IV-D (Figures 6 and 7), the
determinism the challenges of §III-B demand, and the fault scenarios the
system exists to survive.
"""

import pytest

from repro.core import SmartScadaConfig, build_smartscada
from repro.neoscada import Block, HandlerChain, Monitor, Scale
from repro.net import Drop
from repro.sim import Simulator


def build(seed=1, config=None):
    sim = Simulator(seed=seed)
    system = build_smartscada(sim, config=config)
    return sim, system


def settle(sim, seconds=0.3):
    sim.run(until=sim.now + seconds)


def test_replicated_item_update_reaches_hmi():
    """Paper Figure 6: Frontend -> agreement -> replicas -> voted -> HMI."""
    sim, system = build()
    system.frontend.add_item("sensor", initial=0)
    system.start()
    system.frontend.inject_update("sensor", 42)
    settle(sim)
    assert system.hmi.value_of("sensor") == 42
    # Every replica executed the update.
    assert all(m.stats["updates"] >= 1 for m in system.masters)


def test_replicated_alarm_flow_with_deterministic_events():
    sim, system = build()
    system.frontend.add_item("sensor", initial=0)
    system.attach_handlers("sensor", lambda: HandlerChain([Monitor(high=100.0)]))
    system.start()
    system.frontend.inject_update("sensor", 500)
    settle(sim)
    alarms = system.hmi.alarms("sensor")
    assert len(alarms) == 1
    # The event id derives from the total order, not from any replica.
    assert alarms[0].event_id.startswith("evt-")
    # All replicas persisted byte-identical events.
    stored = {m.storage.latest(1)[0] for m in system.masters}
    assert len(stored) == 1


def test_replicated_write_value_roundtrip():
    """Paper Figure 7: the full 16-step write flow."""
    sim, system = build()
    system.frontend.add_item("actuator", initial=0, writable=True)
    system.start()

    def operator():
        result = yield system.hmi.write("actuator", 9)
        return result

    result = sim.run_process(operator(), until=sim.now + 10)
    assert result.success
    settle(sim)
    assert system.frontend.items.get("actuator").value.value == 9
    assert system.hmi.value_of("actuator") == 9


def test_replicated_blocked_write_double_reply():
    """§II-B-b semantics survive replication: failed result + AE event."""
    sim, system = build()
    system.frontend.add_item("actuator", initial=0, writable=True)
    system.attach_handlers(
        "actuator", lambda: HandlerChain([Block(allowed_operators=("chief",))])
    )
    system.start()

    def operator():
        result = yield system.hmi.write("actuator", 1)
        return result

    result = sim.run_process(operator(), until=sim.now + 10)
    assert not result.success
    assert "not authorized" in result.reason
    settle(sim)
    denied = [e for e in system.hmi.events if e.event_type == "write-denied"]
    assert len(denied) == 1
    assert system.frontend.stats["writes"] == 0


def test_replica_states_never_diverge():
    """The central claim: all Master replicas hold identical state."""
    sim, system = build()
    for i in range(5):
        system.frontend.add_item(f"sensor-{i}", initial=0)
    system.frontend.add_item("actuator", initial=0, writable=True)
    for i in range(5):
        system.attach_handlers(
            f"sensor-{i}", lambda: HandlerChain([Scale(0.5), Monitor(high=100.0)])
        )
    system.start()

    def traffic():
        for round_number in range(10):
            for i in range(5):
                system.frontend.inject_update(
                    f"sensor-{i}", 50 + round_number * 40 + i
                )
            if round_number % 3 == 0:
                yield system.hmi.write("actuator", round_number)
            yield sim.timeout(0.05)
        yield sim.timeout(0.5)
        return True

    sim.run_process(traffic(), until=sim.now + 30)
    assert len(set(system.state_digests())) == 1


def test_transparency_same_hmi_and_frontend_code():
    """Challenge (a): HMI/Frontend code is unchanged; only the address
    differs. The HMI used here is the same class the unreplicated system
    uses, pointed at the proxy."""
    from repro.neoscada.hmi import HMI

    sim, system = build()
    assert isinstance(system.hmi, HMI)
    assert system.hmi.master_address == "proxy-hmi"


def test_logical_timeout_unblocks_dropped_write_value():
    """§IV-D: an attacker drops the WriteValue towards the Frontend."""
    sim, system = build()
    system.frontend.add_item("actuator", initial=0, writable=True)
    system.start()
    system.net.faults.add(Drop(dst="frontend-0", kind="WriteValue"))

    def operator():
        result = yield system.hmi.write("actuator", 1)
        return result

    result = sim.run_process(operator(), until=sim.now + 30)
    assert not result.success
    assert "logical timeout" in result.reason
    # Every replica synthesized the same empty WriteResult.
    settle(sim)
    assert len(set(system.state_digests())) == 1
    assert all(pm.timeouts.stats["synthesized"] == 1 for pm in system.proxy_masters)


def test_logical_timeout_unblocks_dropped_write_result():
    """§IV-D: the attacker drops the WriteResult coming back instead."""
    sim, system = build()
    system.frontend.add_item("actuator", initial=0, writable=True)
    system.start()
    system.net.faults.add(Drop(src="frontend-0", kind="WriteResult"))

    def operator():
        result = yield system.hmi.write("actuator", 1)
        return result

    result = sim.run_process(operator(), until=sim.now + 30)
    assert not result.success
    assert "logical timeout" in result.reason


def test_writes_after_logical_timeout_still_work():
    sim, system = build()
    system.frontend.add_item("actuator", initial=0, writable=True)
    system.start()
    rule = system.net.faults.add(Drop(dst="frontend-0", kind="WriteValue"))

    def operator():
        first = yield system.hmi.write("actuator", 1)
        system.net.faults.remove(rule)
        second = yield system.hmi.write("actuator", 2)
        return first, second

    first, second = sim.run_process(operator(), until=sim.now + 60)
    assert not first.success
    assert second.success


def test_crashed_replica_does_not_stop_scada():
    """f=1: the system keeps operating with one replica down."""
    sim, system = build()
    system.frontend.add_item("sensor", initial=0)
    system.frontend.add_item("actuator", initial=0, writable=True)
    system.start()
    system.net.crash("replica-2")
    system.frontend.inject_update("sensor", 7)

    def operator():
        result = yield system.hmi.write("actuator", 3)
        return result

    result = sim.run_process(operator(), until=sim.now + 30)
    assert result.success
    settle(sim)
    assert system.hmi.value_of("sensor") == 7


def test_crashed_leader_replica_recovers_liveness():
    sim, system = build(
        config=SmartScadaConfig(request_timeout=0.5, sync_timeout=1.0)
    )
    system.frontend.add_item("sensor", initial=0)
    system.start()
    system.net.crash("replica-0")  # the initial leader
    system.frontend.inject_update("sensor", 99)
    sim.run(until=sim.now + 10)
    assert system.hmi.value_of("sensor") == 99
    live = [r for r in system.replicas if r.address != "replica-0"]
    assert all(r.synchronizer.regency >= 1 for r in live)


def test_suppressed_replica_pushes_do_not_starve_hmi():
    """f+1 push voting tolerates one replica withholding its copies."""
    sim, system = build()
    system.frontend.add_item("sensor", initial=0)
    system.start()
    system.frontend.inject_update("sensor", 42)
    settle(sim)
    assert system.hmi.value_of("sensor") == 42

    # One replica's pushes vanish: the HMI still gets updates because
    # f+1 of the remaining replicas agree.
    system.net.faults.add(Drop(src="replica-1", kind="PushMessage"))
    system.frontend.inject_update("sensor", 43)
    settle(sim)
    assert system.hmi.value_of("sensor") == 43


def test_forging_replica_pushes_are_outvoted():
    """A Byzantine replica rewrites its pushed ItemUpdates; the HMI-side
    f+1 vote never accepts the minority forgery."""
    from repro.bftsmart.messages import PushMessage
    from repro.net import Tamper
    from repro.wire import decode, encode
    from repro.neoscada.messages import ItemUpdate
    from repro.neoscada.values import DataValue

    sim, system = build()
    system.frontend.add_item("sensor", initial=0)
    system.start()

    def forge(payload):
        # Rewrite replica-1's pushed ItemUpdates to a poisoned value.
        if isinstance(payload, PushMessage):
            inner = decode(payload.payload)
            if isinstance(inner, ItemUpdate):
                poisoned = ItemUpdate(
                    item_id=inner.item_id, value=DataValue(666_666)
                )
                return PushMessage(
                    client_id=payload.client_id,
                    stream=payload.stream,
                    order=payload.order,
                    payload=encode(poisoned),
                )
        return payload

    system.net.faults.add(Tamper(forge, src="replica-1", kind="PushMessage"))
    system.frontend.inject_update("sensor", 42)
    settle(sim)
    assert system.hmi.value_of("sensor") == 42


def test_deterministic_full_system_runs():
    def run(seed):
        sim, system = build(seed=seed)
        system.frontend.add_item("sensor", initial=0)
        system.start()
        for i in range(10):
            system.frontend.inject_update("sensor", i)
        sim.run(until=sim.now + 2)
        return (
            system.hmi.stats["updates"],
            system.state_digests(),
        )

    assert run(7) == run(7)


def test_multiple_frontends_replicated():
    sim = Simulator(seed=3)
    system = build_smartscada(sim, frontend_count=2)
    system.frontends[0].add_item("north.sensor", initial=0)
    system.frontends[1].add_item("south.actuator", initial=0, writable=True)
    system.start()
    system.frontends[0].inject_update("north.sensor", 5)

    def operator():
        result = yield system.hmi.write("south.actuator", 8)
        return result

    result = sim.run_process(operator(), until=sim.now + 10)
    assert result.success
    settle(sim)
    assert system.hmi.value_of("north.sensor") == 5
    assert system.frontends[1].items.get("south.actuator").value.value == 8
