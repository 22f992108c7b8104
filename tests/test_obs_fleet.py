"""Integration tests for the fleet scoreboard (``repro.obs.fleet``).

A real 2-shard deployment under a seeded workload: the scoreboard must
read health, latency, merge freshness and router stats without touching
the schedule, flag a crashed replica as degraded, record status
transitions, and render/serialise cleanly.
"""

import json

from repro.neoscada import HandlerChain, Monitor
from repro.net.faults import Drop
from repro.obs.fleet import FleetScoreboard
from repro.obs.report import (
    render_scoreboard,
    render_transitions,
    write_html_report,
)
from repro.obs.slo import SloEngine, SloSpec
from repro.core import ShardSplitter, ShardedScadaConfig, build_sharded_scada
from repro.sim import Simulator

SENSORS = [f"plant.s{i}" for i in range(6)]


def build_fleet(seed=3, shards=2):
    sim = Simulator(seed=seed)
    system = build_sharded_scada(
        sim, config=ShardedScadaConfig(shards=shards)
    )
    for sensor in SENSORS:
        system.frontend.add_item(sensor, initial=20)
        system.attach_handlers(
            sensor, lambda: HandlerChain([Monitor(high=80.0)])
        )
    system.frontend.add_item("plant.actuator", initial=0, writable=True)
    system.start()
    return sim, system


def drive(sim, system, duration=1.0, scoreboard=None, interval=0.25):
    def updates():
        step = 0
        while sim.now < duration:
            yield sim.timeout(0.05)
            step += 1
            for i, sensor in enumerate(SENSORS):
                value = 90 if (step + i) % 4 == 0 else 30
                system.frontend.inject_update(sensor, value)

    def writes():
        number = 0
        while sim.now < duration:
            yield sim.timeout(0.2)
            number += 1
            system.hmi.write("plant.actuator", number)

    sim.process(updates())
    sim.process(writes())
    stop = sim.now + duration
    while sim.now < stop:
        sim.run(until=min(sim.now + interval, stop))
        if scoreboard is not None:
            scoreboard.sample()
    system.flush_events()
    sim.run(until=sim.now + 0.2)
    if scoreboard is not None:
        scoreboard.sample()


def test_sample_reads_health_and_traffic():
    sim, system = build_fleet()
    scoreboard = FleetScoreboard(system, slo_engine=SloEngine(sim=sim))
    drive(sim, system, scoreboard=scoreboard)
    sample = scoreboard.latest
    assert sample is not None and scoreboard.samples
    assert sample.status == "ok"
    assert [h.shard for h in sample.shards] == [0, 1]
    for health in sample.shards:
        assert health.live == health.n == 4
        assert health.leader.startswith(f"s{health.shard}-replica")
        assert health.status == "ok" and not health.reasons
        assert health.decided > 0
    # Traffic reached both the latency histogram and the router cache.
    assert sample.write_latency is not None
    assert sample.write_latency["count"] >= 4
    assert sample.router["hits"] + sample.router["misses"] > 0
    assert sample.burn  # SLO engine attached -> burn rates reported
    assert sample.violations == 0


def test_sampling_is_passive():
    sim_a, system_a = build_fleet(seed=9)
    drive(sim_a, system_a)
    sim_b, system_b = build_fleet(seed=9)
    scoreboard = FleetScoreboard(system_b, slo_engine=SloEngine(sim=sim_b))
    drive(sim_b, system_b, scoreboard=scoreboard)
    assert sim_b.dispatched == sim_a.dispatched
    assert sim_b.now == sim_a.now
    stream = lambda s: [  # noqa: E731
        (e.event_id, e.item_id, e.timestamp) for e in s.hmi.events
    ]
    assert stream(system_b) == stream(system_a)


def test_crashed_replica_degrades_then_recovers():
    sim, system = build_fleet()
    engine = SloEngine(
        specs=(
            SloSpec(name="avail", kind="availability", budget=0.05,
                    window=1.0),
        ),
        sim=sim,
    )
    scoreboard = FleetScoreboard(system, slo_engine=engine)
    drive(sim, system, duration=0.5, scoreboard=scoreboard)
    assert scoreboard.latest.status == "ok"

    # Crash one non-leader member of shard 0, chaos-style (replica +
    # adapter down, outbound dropped).
    victim = system.group(0)[-1]
    rules = []
    for addr in (victim.address, f"{victim.address}-adapter"):
        system.net.crash(addr)
        rules.append(system.net.faults.add(Drop(src=addr)))
    drive(sim, system, duration=0.5, scoreboard=scoreboard)
    sample = scoreboard.latest
    shard0 = sample.shards[0]
    assert shard0.live == 3 and shard0.status == "degraded"
    assert sample.shards[1].status == "ok"
    assert sample.status == "degraded"
    assert engine.violations and engine.violations[0].shard == 0

    # Recover: the fleet goes green again and the transition log shows
    # the full round trip.
    for addr in (victim.address, f"{victim.address}-adapter"):
        system.net.recover(addr)
    for rule in rules:
        if rule in system.net.faults.rules:
            system.net.faults.remove(rule)
    drive(sim, system, duration=2.0, scoreboard=scoreboard)
    assert scoreboard.latest.shards[0].live == 4
    assert scoreboard.latest.status == "ok"
    scopes = [(t["scope"], t["from"], t["to"]) for t in scoreboard.transitions]
    assert ("s0", "ok", "degraded") in scopes
    assert ("s0", "degraded", "ok") in scopes
    assert ("fleet", "ok", "degraded") in scopes


def test_quorum_loss_is_critical():
    sim, system = build_fleet()
    scoreboard = FleetScoreboard(system)
    for pm in system.group(1)[2:]:  # drop 2 of 4: live 2 < quorum 3
        system.net.crash(pm.address)
        system.net.crash(f"{pm.address}-adapter")
    scoreboard.sample()
    sample = scoreboard.latest
    assert sample.shards[1].status == "critical"
    assert sample.status == "critical"
    assert any("quorum" in r for r in sample.shards[1].reasons)


def test_grown_group_reports_its_current_membership():
    """Regression: ``n`` came from static config, so a group grown to five
    by a split read ``n=4, live=5`` — and stayed "ok" with a member down."""
    sim, system = build_fleet()
    moved = [s for s in SENSORS if system.shard_of(s) == 0][:1]
    report = sim.run_process(
        ShardSplitter(system).split(moved, 1, grow_target=True), until=30
    )
    assert report.status == "completed" and report.grew_target
    scoreboard = FleetScoreboard(system)
    grown = scoreboard.sample().shards[1]
    assert (grown.n, grown.live, grown.quorum, grown.status) == (5, 5, 3, "ok")
    assert scoreboard.latest.shards[0].n == 4  # the static group is untouched

    victim = system.group(1)[1]
    victim.replica.halt()
    system.net.crash(victim.address)
    grown = scoreboard.sample().shards[1]
    assert (grown.n, grown.live, grown.status) == (5, 4, "degraded")
    assert grown.reasons == ["live 4 of 5 members"]


def test_scoreboard_works_without_engine_or_detector():
    sim, system = build_fleet(shards=1)  # one group: trivial router and merger
    scoreboard = FleetScoreboard(system)
    drive(sim, system, duration=0.5, scoreboard=scoreboard)
    sample = scoreboard.latest
    assert len(sample.shards) == 1 and sample.shards[0].live == 4
    assert sample.burn == {}
    # The operator writes routed through the HMI proxy's router...
    assert sample.router["hits"] + sample.router["misses"] > 0
    assert sample.router["invalidations"] == 0
    # ...and every alarm left the merger on offer: nothing held back.
    assert sample.holdback["offered"] == sample.holdback["released"] > 0
    assert sample.holdback["peak_buffer"] == sample.holdback["pending"] == 0
    assert sample.freshness_age == 0.0


def test_to_dict_and_renderers_are_clean():
    sim, system = build_fleet()
    scoreboard = FleetScoreboard(system, slo_engine=SloEngine(sim=sim))
    drive(sim, system, duration=0.5, scoreboard=scoreboard)
    data = scoreboard.to_dict()
    encoded = json.dumps(data)  # must be JSON-serialisable as-is
    assert json.loads(encoded)["shards"] == 2
    assert data["samples"] and data["latest"]["status"] == "ok"
    board = render_scoreboard(data)
    assert "FLEET" in board and "s0" in board and "s1" in board
    assert render_transitions(data)


def test_html_report_is_static_and_self_contained(tmp_path):
    sim, system = build_fleet()
    scoreboard = FleetScoreboard(system, slo_engine=SloEngine(sim=sim))
    drive(sim, system, duration=0.5, scoreboard=scoreboard)
    path = tmp_path / "fleet.html"
    write_html_report(scoreboard.to_dict(), str(path))
    html = path.read_text()
    assert html.startswith("<!DOCTYPE html>" ) or "<html" in html
    assert "s0" in html and "s1" in html
    assert "<script src=" not in html  # no external dependencies
