"""Chaos test: a larger deployment under mixed traffic and rolling faults.

Three frontends, thirty items with handler chains, continuous updates,
periodic operator writes, probabilistic message loss, one replica crash
and recovery — at the end, every live Master replica must hold
byte-identical state and the HMI's view must match the field.

Which links are lossy: every link with a replica at either end — client
-> replica requests, replica -> client replies and pushes, and the
replica <-> replica consensus traffic. Those are the hops the protocol
makes redundant (clients retransmit, pushes come from n replicas and
need f+1, consensus has quorums to spare). The co-located loopback hops
``ProxyHMI -> HMI`` and ``Frontend <-> ProxyFrontend`` are *not* lossy:
they are unreplicated process-local pipes with no retransmission, so a
message lost there is lost for good (a dropped last update leaves the HMI
permanently behind the Masters) — a fault outside the paper's model,
which the un-scoped rule used to inject and one seed used to dodge.
"""

import pytest

from repro.core import SmartScadaConfig, build_smartscada
from repro.neoscada import Block, HandlerChain, Monitor, Scale
from repro.net import Drop
from repro.sim import Simulator

ITEMS_PER_FRONTEND = 10


def _touches_a_replica(envelope) -> bool:
    return envelope.src.startswith("replica-") or envelope.dst.startswith("replica-")


@pytest.mark.parametrize("seed", [1, 4, 15, 22, 23, 35])
def test_chaos_run_converges(seed):
    sim = Simulator(seed=seed)
    config = SmartScadaConfig(request_timeout=1.0, sync_timeout=2.0)
    system = build_smartscada(sim, config=config, frontend_count=3)

    item_ids = []
    for index, frontend in enumerate(system.frontends):
        for i in range(ITEMS_PER_FRONTEND):
            item_id = f"area{index}.sensor{i}"
            frontend.add_item(item_id, initial=0)
            item_ids.append(item_id)
            system.attach_handlers(
                item_id,
                lambda: HandlerChain([Scale(0.1), Monitor(high=50.0)]),
            )
        frontend.add_item(f"area{index}.actuator", initial=0, writable=True)
        system.attach_handlers(
            f"area{index}.actuator",
            lambda: HandlerChain([Block(allowed_operators=("operator-1",))]),
        )
    system.start()

    # 1% probabilistic loss on every replicated hop (module docstring).
    system.net.faults.add(Drop(probability=0.01, predicate=_touches_a_replica))

    def traffic():
        for round_number in range(60):
            frontend = system.frontends[round_number % 3]
            item = item_ids[(round_number * 7) % len(item_ids)]
            frontend.inject_update(item, (round_number * 13) % 900)
            if round_number % 10 == 5:
                result = yield system.hmi.write(
                    f"area{round_number % 3}.actuator", round_number
                )
                assert result is not None
            yield sim.timeout(0.05)
        return True

    def chaos():
        yield sim.timeout(1.0)
        system.net.crash("replica-1")
        yield sim.timeout(1.5)
        system.net.recover("replica-1")
        return True

    traffic_proc = sim.process(traffic())
    sim.process(chaos())
    sim.run(until=sim.now + 120, stop_on=traffic_proc)
    assert traffic_proc.ok

    # Let the recovered replica finish catching up.
    for _ in range(120):
        sim.run(until=sim.now + 0.5)
        decided = {r.last_decided for r in system.replicas}
        executed = {r.executed_cid for r in system.replicas}
        if len(decided) == 1 and len(executed) == 1:
            break

    digests = system.state_digests()
    assert len(set(digests)) == 1, "replicas diverged under chaos"

    # HMI view agrees with the replicated Masters' item space.
    master = system.masters[0]
    disagreements = [
        item_id
        for item_id in item_ids
        if system.hmi.value_of(item_id) is not None
        and system.hmi.value_of(item_id) != master.items.get(item_id).value.value
    ]
    assert disagreements == []
    # Alarms flowed (scaled values above 50 exist in the workload).
    assert len(system.hmi.alarms()) > 0
