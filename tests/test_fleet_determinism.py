"""The fleet control plane is observation, never scheduling.

Sampling the scoreboard and evaluating SLOs must leave a seeded run
bit-identical: same campaign fingerprint, same per-replica decided
streams, same global AE order. This is the same contract span tracing
holds (``tests/test_trace_determinism.py``), extended to the whole
observability control plane.
"""

from dataclasses import replace

from repro.chaos import get_scenario, run_campaign
from repro.neoscada import HandlerChain, Monitor
from repro.obs.fleet import FleetScoreboard
from repro.obs.slo import SloEngine
from repro.core import ShardedScadaConfig, build_sharded_scada
from repro.sim import Simulator

SENSORS = [f"plant.s{i}" for i in range(6)]


# ----------------------------------------------------------------------
# campaign fingerprints
# ----------------------------------------------------------------------

def test_campaign_fingerprint_invariant_with_fleet():
    """A sharded chaos campaign fingerprints identically with the
    scoreboard + SLO engine on or off (they piggyback on the monitor
    poll grid and add zero events)."""
    scenario = get_scenario("shard-leader-kills")
    base = scenario.config(seed=4)
    plain = run_campaign(scenario.schedule(), base)
    fleet = run_campaign(scenario.schedule(), replace(base, fleet=True))
    assert plain.fingerprint() == fleet.fingerprint()
    assert plain.fleet is None and plain.slo_violations == []
    # The diagnostics side actually observed the drill.
    assert fleet.fleet is not None
    assert fleet.fleet["shards"] == 2
    assert fleet.fleet["samples"]
    # Both group leaders were killed: the availability budget burned on
    # both shards, and the run ended green again.
    burned = {
        v["shard"] for v in fleet.slo_violations
        if v["slo"] == "shard-availability"
    }
    assert burned == {0, 1}
    assert fleet.fleet["status"] == "ok"


# ----------------------------------------------------------------------
# direct 2-shard workload: decided streams + global AE order
# ----------------------------------------------------------------------

def run_workload(observed: bool, seed: int = 6):
    sim = Simulator(seed=seed)
    system = build_sharded_scada(sim, config=ShardedScadaConfig(shards=2))
    for sensor in SENSORS:
        system.frontend.add_item(sensor, initial=20)
        system.attach_handlers(
            sensor, lambda: HandlerChain([Monitor(high=80.0)])
        )
    system.frontend.add_item("plant.actuator", initial=0, writable=True)
    system.start()
    scoreboard = (
        FleetScoreboard(system, slo_engine=SloEngine(sim=sim))
        if observed
        else None
    )

    def updates():
        for rnd in range(4):
            for i, sensor in enumerate(SENSORS):
                value = 90 if (i + rnd) % 3 == 0 else 30
                system.frontend.inject_update(sensor, value)
                yield sim.timeout(0.02)

    def writes():
        for number in range(3):
            yield sim.timeout(0.3)
            system.hmi.write("plant.actuator", number + 1)

    sim.process(updates())
    sim.process(writes())
    deadline = 2.0
    while sim.now < deadline:
        sim.run(until=min(sim.now + 0.25, deadline))
        if scoreboard is not None:
            scoreboard.sample()
    system.flush_events()
    sim.run(until=sim.now + 0.3)
    if scoreboard is not None:
        scoreboard.sample()
    return sim, system, scoreboard


def decided_streams(system):
    return [
        [(cid, value) for cid, value, _ts in pm.replica.decision_log]
        for pm in system.proxy_masters
    ]


def ae_order(system):
    return [
        (e.event_id, e.item_id, e.event_type, e.value, e.timestamp)
        for e in system.hmi.events
    ]


def test_scoreboard_on_off_identical_runs():
    sim_off, system_off, _ = run_workload(observed=False)
    sim_on, system_on, scoreboard = run_workload(observed=True)
    assert sim_on.dispatched == sim_off.dispatched
    assert sim_on.now == sim_off.now
    assert decided_streams(system_on) == decided_streams(system_off)
    assert ae_order(system_on) == ae_order(system_off)
    assert ae_order(system_on), "workload delivered no events"
    # The observed run really sampled a healthy 2-shard fleet.
    assert scoreboard.latest.status == "ok"
    assert len(scoreboard.latest.shards) == 2
    assert scoreboard.latest.violations == 0
