"""SMaRt-SCADA under Byzantine Master replicas — the reason it exists."""

import pytest

from repro.bftsmart import Equivocating, Lying, Silent, Stuttering
from repro.core import SmartScadaConfig, build_smartscada
from repro.neoscada import HandlerChain, Monitor
from repro.sim import Simulator


def build(behaviours, seed=41):
    sim = Simulator(seed=seed)
    system = build_smartscada(
        sim, config=SmartScadaConfig(request_timeout=0.5, sync_timeout=1.0)
    )
    for index, behaviour in behaviours.items():
        system.replicas[index].behaviour = behaviour
    system.frontend.add_item("sensor", initial=0)
    system.frontend.add_item("actuator", initial=0, writable=True)
    system.attach_handlers("sensor", lambda: HandlerChain([Monitor(high=100.0)]))
    system.start()
    return sim, system


def drive(sim, system):
    system.frontend.inject_update("sensor", 150)  # alarms
    sim.run(until=sim.now + 1.0)

    def operator():
        result = yield system.hmi.write("actuator", 5)
        return result

    return sim.run_process(operator(), until=sim.now + 30)


@pytest.mark.parametrize(
    "behaviour",
    [Silent(), Lying(), Stuttering()],
    ids=["SilentReplica", "LyingReplica", "StutteringReplica"],
)
def test_one_byzantine_master_replica_is_tolerated(behaviour):
    sim, system = build({2: behaviour})
    result = drive(sim, system)
    assert result.success
    sim.run(until=sim.now + 1)
    assert system.hmi.value_of("sensor") == 150
    assert system.hmi.value_of("actuator") == 5
    assert len(system.hmi.alarms()) == 1
    # The honest replicas agree with each other.
    honest = [pm for pm in system.proxy_masters if pm.replica.behaviour is None]
    from repro.crypto import digest

    digests = {digest(pm.service.snapshot()) for pm in honest}
    assert len(digests) == 1


def test_byzantine_leader_master_replica_is_deposed():
    from repro.crypto import digest

    sim, system = build({0: Equivocating()})
    result = drive(sim, system)
    assert result.success
    honest = system.replicas[1:]
    assert all(r.synchronizer.regency >= 1 for r in honest)
    # The equivocation may have scrambled the *first* batch's internal
    # order (consistently at every replica — e.g. the HMI subscription
    # landing after the first update), but once the honest leader rules,
    # updates flow normally and the replicas agree byte-for-byte.
    system.frontend.inject_update("sensor", 160)
    sim.run(until=sim.now + 1)
    assert system.hmi.value_of("sensor") == 160
    digests = {digest(pm.service.snapshot()) for pm in system.proxy_masters[1:]}
    assert len(digests) == 1
