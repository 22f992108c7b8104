"""Experiment runner: builds a system, drives a workload, measures.

This is the shared engine behind the benchmark suite (one bench per
paper table/figure) and several examples. Each ``run_*`` function builds
a fresh deployment for one parameter point and returns an
:class:`ExperimentResult` with the same quantities the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import SmartScadaConfig
from repro.core.system import build_neoscada, build_smartscada, make_network
from repro.neoscada.handlers.chain import HandlerChain
from repro.neoscada.handlers.monitor import Monitor
from repro.sim.kernel import Simulator
from repro.workloads.generators import UpdateWorkload, WriteWorkload
from repro.workloads.metrics import LatencyRecorder, ThroughputMeter

#: Threshold used by the Monitor handler in the alarm experiments;
#: UpdateWorkload's alarm_value exceeds it, normal_value does not.
ALARM_THRESHOLD = 500.0


@dataclass
class ExperimentResult:
    """One measured point of an experiment."""

    system: str
    workload: str
    offered_rate: float | None
    throughput: float
    alarm_ratio: float = 0.0
    latency: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def overhead_vs(self, baseline: "ExperimentResult") -> float:
        """Relative throughput drop vs. a baseline result (0.06 = 6%)."""
        if baseline.throughput <= 0:
            return 0.0
        return 1.0 - self.throughput / baseline.throughput


def _build(
    system: str,
    sim: Simulator,
    item_count: int,
    alarms: bool,
    trace: bool = False,
    config: SmartScadaConfig | None = None,
    hop_latency: float | None = None,
):
    if hop_latency is None:
        net = make_network(sim, trace=trace)
    else:
        net = make_network(sim, hop_latency=hop_latency, trace=trace)
    if system == "neoscada":
        deployment = build_neoscada(sim, net=net)
    elif system == "smartscada":
        deployment = build_smartscada(
            sim, net=net, config=config if config is not None else SmartScadaConfig()
        )
    else:
        raise ValueError(f"unknown system {system!r}")
    frontend = deployment.frontend
    item_ids = [f"rtu.sensor.{i}" for i in range(item_count)]
    for item_id in item_ids:
        frontend.add_item(item_id, initial=0)
    frontend.add_item("rtu.actuator", initial=0, writable=True)
    if alarms:
        for item_id in item_ids:
            deployment.attach_handlers(
                item_id, lambda: HandlerChain([Monitor(high=ALARM_THRESHOLD)])
            )
    deployment.start()
    return deployment, item_ids


def run_update_experiment(
    system: str,
    rate: float = 1000.0,
    alarm_ratio: float = 0.0,
    duration: float = 6.0,
    warmup: float = 1.0,
    item_count: int = 20,
    seed: int = 1,
    config: SmartScadaConfig | None = None,
    hop_latency: float | None = None,
) -> ExperimentResult:
    """The Update-Item workload of §V-A (Figures 8a and 8b).

    Offers ``rate`` ItemUpdates/s at the Frontend and measures how many
    per second reach the HMI during the steady-state window. ``config``
    (smartscada only) and ``hop_latency`` override the deployment for
    ablations; the defaults reproduce the paper's Figure 8 setup.
    """
    sim = Simulator(seed=seed)
    deployment, item_ids = _build(
        system,
        sim,
        item_count,
        alarms=alarm_ratio > 0.0,
        config=config,
        hop_latency=hop_latency,
    )
    # End-to-end update latency: the injected DataValue carries its
    # creation time; handlers preserve it all the way to the HMI.
    latencies = LatencyRecorder()
    recording = {"on": False}

    def on_value(item_id, value) -> None:
        if recording["on"] and value.timestamp > 0:
            latencies.record(sim.now - value.timestamp)

    deployment.hmi.on_value_change = on_value
    workload = UpdateWorkload(
        sim,
        deployment.frontend,
        item_ids,
        rate=rate,
        alarm_ratio=alarm_ratio,
        normal_value=int(ALARM_THRESHOLD) - 400,
        alarm_value=int(ALARM_THRESHOLD) + 400,
    )
    meter = ThroughputMeter(sim, lambda: deployment.hmi.stats["updates"])
    events_meter = ThroughputMeter(sim, lambda: deployment.hmi.stats["events"])
    workload.start(duration=warmup + duration)
    sim.run(until=sim.now + warmup)
    meter.open_window()
    events_meter.open_window()
    recording["on"] = True
    sim.run(until=sim.now + duration)
    meter.close_window()
    events_meter.close_window()
    recording["on"] = False
    return ExperimentResult(
        system=system,
        workload="update",
        offered_rate=rate,
        throughput=meter.rate,
        alarm_ratio=alarm_ratio,
        latency=latencies.summary() if len(latencies) else {},
        details={
            "injected": workload.injected,
            "alarms_injected": workload.alarms_injected,
            "event_rate": events_meter.rate,
            "hmi_updates": deployment.hmi.stats["updates"],
        },
    )


def run_write_experiment(
    system: str,
    duration: float = 4.0,
    warmup: float = 0.5,
    seed: int = 1,
) -> ExperimentResult:
    """The Write-Value workload of §V-B (Figure 8c).

    A closed loop of synchronous writes; throughput is completed writes
    per second in the steady window.
    """
    sim = Simulator(seed=seed)
    deployment, _item_ids = _build(system, sim, item_count=1, alarms=False)
    workload = WriteWorkload(sim, deployment.hmi, "rtu.actuator")
    meter = ThroughputMeter(sim, lambda: workload.completed)
    workload.start(duration=warmup + duration)
    sim.run(until=sim.now + warmup)
    meter.open_window()
    sim.run(until=sim.now + duration)
    meter.close_window()
    sim.run(stop_on=workload.done, until=sim.now + 30)
    return ExperimentResult(
        system=system,
        workload="write",
        offered_rate=None,
        throughput=meter.rate,
        latency=workload.latencies.summary(),
        details={"completed": workload.completed, "failed": workload.failed},
    )


#: Offered update load of the Figure 8(a)/(b) experiments (updates/s).
FIG8_OFFERED = 1000.0
#: Title and header of the table :func:`fig8_rows` fills.
FIG8_TITLE = "Figure 8 — full reproduction (ops/s)"
FIG8_HEADER = ["experiment", "NeoSCADA", "SMaRt-SCADA", "overhead", "paper"]


def fig8_rows(duration: float) -> list:
    """The paper-vs-measured Figure 8 table, one row per panel point.

    Each row is ``[experiment, NeoSCADA ops/s, SMaRt-SCADA ops/s,
    overhead, paper's overhead]`` with the throughputs rounded to whole
    ops/s; ``duration`` is the measurement window per point.
    """
    rows = []

    def measure(label: str, paper: str, run) -> None:
        neo, smart = (run(system).throughput for system in ("neoscada", "smartscada"))
        rows.append([label, round(neo), round(smart), f"{1 - smart / neo:.1%}", paper])

    for label, ratio, paper in (
        ("8(a) update, no alarms", 0.0, "6%"),
        ("8(b) update, 50% alarms", 0.5, "10%"),
        ("8(b) update, 100% alarms", 1.0, "25%"),
    ):
        measure(label, paper, lambda system: run_update_experiment(
            system, rate=FIG8_OFFERED, alarm_ratio=ratio, duration=duration
        ))
    measure("8(c) synchronous writes", "78%", lambda system: run_write_experiment(
        system, duration=duration
    ))
    return rows
