"""Wall-clock cost of the fleet observability control plane.

Three configurations of the same seeded 2-shard run, all with the span
tracer enabled (the control plane's own baseline): tracing only, a
scoreboard constructed but never sampled ("disabled" — the shipping
default costs nothing because the scoreboard is pull-based), and the
scoreboard + SLO engine sampled on every host slice ("enabled"). The
control plane is passive, so all three must dispatch identical event
schedules; only wall-clock may differ.

A fourth run injects a leader kill to calibrate the SLO verdicts: the
benign run must burn nothing, the kill must burn the availability
budget. Results land under the ``fleet`` key of ``BENCH_PERF.json``.
"""

from __future__ import annotations

import pathlib
import time

from conftest import once, print_table

from repro.core.config import SmartScadaConfig
from repro.core.system import make_network
from repro.neoscada import HandlerChain, Monitor
from repro.net.faults import Drop
from repro.obs.fleet import FleetScoreboard
from repro.obs.slo import SloEngine
from repro.obs.trace import install_tracer
from repro.core import ShardedScadaConfig, build_sharded_scada
from repro.sim import Simulator

REPORT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_PERF.json"

DURATION = 4.0
INTERVAL = 0.25
SENSORS = [f"plant.s{i}" for i in range(6)]

#: Generous regression guards (CI boxes are noisy): the ISSUE targets
#: are enabled <= 1.15x and disabled <= 1.01x over tracing-only; the
#: recorded ratios stay honest while the asserts leave headroom.
MAX_ENABLED_OVERHEAD = 2.0
MAX_DISABLED_OVERHEAD = 1.5


def run_fleet(mode: str, kill: bool = False) -> dict:
    """One seeded 2-shard run; ``mode`` is tracing/disabled/enabled."""
    sim = Simulator(seed=7)
    install_tracer(sim)
    net = make_network(sim)
    base = SmartScadaConfig(
        request_timeout=1.0,
        sync_timeout=2.0,
        invoke_timeout=0.5,
        logical_timeout=0.8,
    )
    system = build_sharded_scada(
        sim, net=net, config=ShardedScadaConfig(shards=2, base=base)
    )
    for sensor in SENSORS:
        system.frontend.add_item(sensor, initial=20)
        system.attach_handlers(
            sensor, lambda: HandlerChain([Monitor(high=80.0)])
        )
    system.frontend.add_item("plant.actuator", initial=0, writable=True)
    system.start()
    for client in list(system.proxy_hmi.bft_clients) + [
        c for pf in system.proxy_frontends for c in pf.bft_clients
    ]:
        client.max_attempts = 1000
    for pm in system.proxy_masters:
        pm.vote_client.max_attempts = 1000

    scoreboard = None
    if mode != "tracing":
        scoreboard = FleetScoreboard(system, slo_engine=SloEngine(sim=sim))

    def updates():
        step = 0
        while sim.now < DURATION:
            yield sim.timeout(0.1)
            step += 1
            for i, sensor in enumerate(SENSORS):
                value = 90 if (step + i) % 8 == 0 else 30
                system.frontend.inject_update(sensor, value)

    def writes():
        number = 0
        while sim.now < DURATION:
            yield sim.timeout(0.4)
            number += 1
            event = system.hmi.write("plant.actuator", number)
            event.add_callback(lambda ev: setattr(ev, "defused", True))

    sim.process(updates())
    sim.process(writes())

    if kill:
        state = {"rules": [], "target": None}

        def crash() -> None:
            leader = system.group(0)[0].replica.leader
            state["target"] = leader
            for addr in (leader, f"{leader}-adapter"):
                net.crash(addr)
                state["rules"].append(net.faults.add(Drop(src=addr)))

        def recover() -> None:
            for addr in (state["target"], f"{state['target']}-adapter"):
                net.recover(addr)
            for rule in state["rules"]:
                if rule in net.faults.rules:
                    net.faults.remove(rule)

        sim.defer(DURATION / 3.0, crash)
        sim.defer(2.0 * DURATION / 3.0, recover)

    # The kill run samples past the horizon so the availability window
    # drains and the fleet can be seen green again.
    horizon = DURATION + (3.0 if kill else 0.0)
    start = time.perf_counter()
    while sim.now < horizon:
        sim.run(until=min(sim.now + INTERVAL, horizon))
        if mode == "enabled":
            scoreboard.sample()
    wall = time.perf_counter() - start
    system.flush_events()

    engine = scoreboard.slo_engine if scoreboard is not None else None
    return {
        "wall_s": round(wall, 4),
        "events_dispatched": sim.dispatched,
        "alarms": len(system.hmi.alarms()),
        "samples": len(scoreboard.samples) if scoreboard is not None else 0,
        "slo_violations": (
            [v.as_dict() for v in engine.violations]
            if engine is not None
            else []
        ),
        "status": (
            scoreboard.latest.status
            if scoreboard is not None and scoreboard.latest is not None
            else None
        ),
    }


def best_of(mode: str, kill: bool = False, rounds: int = 3) -> dict:
    """Min-wall of ``rounds`` identical deterministic runs (noise guard)."""
    results = [run_fleet(mode, kill=kill) for _ in range(rounds)]
    return min(results, key=lambda result: result["wall_s"])


def measure() -> dict:
    tracing = best_of("tracing")
    disabled = best_of("disabled")
    enabled = best_of("enabled")
    killed = best_of("enabled", kill=True)
    return {
        "pipeline": "sharded_scada",
        "shards": 2,
        "duration_s": DURATION,
        "sample_interval_s": INTERVAL,
        "tracing": tracing,
        "disabled": disabled,
        "enabled": enabled,
        "leader_kill": killed,
        "overhead_disabled": round(disabled["wall_s"] / tracing["wall_s"], 3),
        "overhead_enabled": round(enabled["wall_s"] / tracing["wall_s"], 3),
        "identical_schedules": (
            tracing["events_dispatched"]
            == disabled["events_dispatched"]
            == enabled["events_dispatched"]
        ),
    }


def test_fleet_overhead_and_slo_verdicts(benchmark):
    report = once(benchmark, measure)

    from repro.workloads.profiler import write_report

    write_report({"fleet": report}, str(REPORT_PATH))

    print_table(
        "fleet control plane overhead — 2-shard wall-clock seconds",
        ["mode", "wall_s", "events", "samples", "violations"],
        [
            [
                mode,
                report[mode]["wall_s"],
                report[mode]["events_dispatched"],
                report[mode]["samples"],
                len(report[mode]["slo_violations"]),
            ]
            for mode in ("tracing", "disabled", "enabled", "leader_kill")
        ],
    )

    # Passivity: the control plane never changed the schedule.
    assert report["identical_schedules"], report
    assert report["enabled"]["samples"] > 0
    assert report["enabled"]["alarms"] > 0

    # SLO calibration: benign burns nothing, the leader kill burns the
    # availability budget (and the fleet ends green again).
    assert report["enabled"]["slo_violations"] == []
    killed = report["leader_kill"]
    burned = {v["slo"] for v in killed["slo_violations"]}
    assert "shard-availability" in burned, killed
    assert killed["status"] == "ok", killed

    # Cost envelope (generous: regression guard, not marketing).
    assert report["overhead_disabled"] < MAX_DISABLED_OVERHEAD, report
    assert report["overhead_enabled"] < MAX_ENABLED_OVERHEAD, report
