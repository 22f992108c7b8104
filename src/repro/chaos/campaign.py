"""The deterministic chaos-campaign runner.

One campaign = one fresh SMaRt-SCADA deployment + background SCADA
traffic (sensor updates and operator writes) + one fault
:class:`~repro.chaos.schedule.Schedule` + the invariant monitor suite.
The runner:

1. validates the schedule against the ``f`` replica-fault budget,
2. builds the system from the campaign seed (every RNG stream derives
   from it),
3. applies each action at its start time and reverts it at its end time
   (open-ended faults heal at the fault horizon),
4. polls the monitor list throughout (invariant monitors first, then
   the IDS, heal, fleet and flight-recorder participants the config
   flags append), lets the system settle, then evaluates the liveness
   monitors,
5. returns a :class:`CampaignReport` with the verdicts and a
   :meth:`~CampaignReport.fingerprint` that is bit-stable: the same seed
   and schedule always produce the identical fingerprint.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from repro.chaos.adaptive import TriggeredAction, active_replica_faults
from repro.chaos.monitors import InvariantMonitor, Violation, default_monitors
from repro.chaos.schedule import Schedule
from repro.core.config import ShardedScadaConfig, SmartScadaConfig
from repro.core.system import build_sharded_scada, make_network
from repro.heal import HealConfig, RecoveryOrchestrator
from repro.ids import (
    FeatureExtractor,
    GroundTruthEpisode,
    IntrusionDetector,
    score_detections,
)
from repro.neoscada import HandlerChain, Monitor
from repro.obs.export import write_chrome_trace
from repro.obs.fleet import FleetScoreboard
from repro.obs.slo import SloEngine
from repro.obs.trace import install_tracer
from repro.sim.kernel import Simulator

#: Retransmission budget for campaign clients: campaigns crash replicas
#: and partition the network on purpose, so clients must keep probing
#: (with the capped backoff) rather than give up mid-fault.
CAMPAIGN_MAX_ATTEMPTS = 1000
#: Post-horizon grace for recovery before liveness verdicts (seconds).
SETTLE = 10.0
#: Background traffic: every ``UPDATE_INTERVAL`` each of ``SENSORS``
#: sensors reports a new value.
UPDATE_INTERVAL = 0.2
SENSORS = 3
#: Safety-monitor (and trigger, IDS, heal, scoreboard) polling period.
POLL_INTERVAL = 0.1
#: Seconds of span context a ``trace_dump`` keeps on each side of the
#: first violation.
TRACE_WINDOW = 1.0
#: Span retention cap of the tracer a campaign installs.
MAX_TRACE_SPANS = 200_000


def sensor_value(step: int, sensor: int) -> int:
    """Value sensor number ``sensor`` reports at traffic step ``step``."""
    return (step * 37 + sensor * 101) % 700 + 1


@dataclass(frozen=True)
class CampaignConfig:
    """Tunables for one campaign run (all timing in simulated seconds)."""

    seed: int = 0
    #: Faults only start/stop inside [0, horizon]; open-ended faults heal here.
    horizon: float = 6.0
    #: Background operator-write period.
    write_interval: float = 1.2
    #: Group shape.
    n: int = 4
    f: int = 1
    #: Independent BFT groups behind the one namespace (1 = classic).
    #: Each group carries its *own* ``f`` replica-fault budget.
    shards: int = 1
    #: Permit schedules that exceed the replica-fault budget (attack drills).
    allow_overload: bool = False
    #: Record the network trace (for hop-level fingerprints).
    trace: bool = False
    #: Protocol timeouts, scaled down from the defaults so leader changes
    #: and logical timeouts resolve within a short campaign.
    request_timeout: float = 1.0
    sync_timeout: float = 2.0
    invoke_timeout: float = 0.5
    logical_timeout: float = 0.8
    #: Consensus pipeline depth (1 = strictly sequential ordering; the
    #: ``pipelined-*`` scenarios override it to exercise overlap).
    pipeline_depth: int = 1
    #: Durable replica state (`repro.storage`): required by
    #: :class:`~repro.chaos.schedule.CrashRestart` actions.
    durability: bool = False
    fsync_policy: str = "every-decision"
    checkpoint_interval: int = 1000
    #: Install a :class:`repro.obs.trace.SpanTracer` for the run.
    trace_spans: bool = False
    #: When set, a first invariant violation dumps the span window around
    #: it as Chrome trace-event JSON to this path (implies tracing).
    trace_dump: str | None = None
    #: Run the trace-driven intrusion detector alongside the monitors
    #: (implies span tracing). Detections are reported and scored against
    #: ground truth but stay outside the fingerprint: a campaign's
    #: behaviour is bit-identical with the IDS on or off.
    ids: bool = False
    #: Close the loop: run the :class:`repro.heal.RecoveryOrchestrator`
    #: on the detector's verdicts (implies the IDS and span tracing).
    #: Unlike the passive IDS, healing *acts* — reconfigurations,
    #: restarts — so a heal campaign's fingerprint legitimately differs
    #: from the same campaign without it.
    heal: bool = False
    #: Orchestrator tuning; ``None`` = :class:`repro.heal.HealConfig`
    #: defaults (the proportionate-escalation policy table).
    heal_config: HealConfig | None = None
    #: Run the fleet observability control plane alongside the monitors:
    #: a :class:`repro.obs.fleet.FleetScoreboard` sampled on the poll
    #: grid plus a :class:`repro.obs.slo.SloEngine` evaluating burn-rate
    #: error budgets. Strictly passive — like the IDS, a campaign's
    #: fingerprint is bit-identical with the scoreboard on or off. The
    #: objectives are :func:`repro.obs.slo.default_fleet_slos`.
    fleet: bool = False

    def sharded_config(self) -> ShardedScadaConfig:
        base = SmartScadaConfig(
            n=self.n,
            f=self.f,
            request_timeout=self.request_timeout,
            sync_timeout=self.sync_timeout,
            invoke_timeout=self.invoke_timeout,
            logical_timeout=self.logical_timeout,
            pipeline_depth=self.pipeline_depth,
            durability=self.durability,
            fsync_policy=self.fsync_policy,
            checkpoint_interval=self.checkpoint_interval,
        )
        return ShardedScadaConfig(shards=self.shards, base=base)


@dataclass
class WriteRecord:
    """Ledger entry for one operator write issued during the campaign."""

    number: int
    item_id: str
    value: object
    submitted: float
    completed: float | None = None
    success: bool | None = None
    reason: str | None = None


@dataclass
class CampaignContext:
    """Everything actions and monitors need about the running campaign."""

    sim: Simulator
    net: object
    system: object
    config: CampaignConfig
    handler_config: object = None
    injector: object = None
    #: Replica indices currently taken down / swapped Byzantine.
    crashed: set = field(default_factory=set)
    compromised: set = field(default_factory=set)
    rejuvenations: int = 0
    restarts: int = 0
    #: One dict per CrashRestart reboot: index, disk fault, crash /
    #: restart / settle times and the replacement ProxyMaster.
    restart_events: list = field(default_factory=list)
    #: item_id -> set of values the field actually produced.
    legal_values: dict = field(default_factory=dict)
    writes: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    #: Instant the last fault healed (liveness clock zero).
    last_heal: float = 0.0
    _seen_violations: set = field(default_factory=set)
    #: Planted-intrusion episodes (dicts; ``end=None`` while ongoing).
    ground_truth: list = field(default_factory=list)
    #: One dict per adaptive-trigger firing (action, predicate, times).
    trigger_fires: list = field(default_factory=list)
    #: The running :class:`repro.ids.IntrusionDetector`, or ``None``.
    detector: object = None
    #: The running :class:`repro.heal.RecoveryOrchestrator`, or ``None``.
    orchestrator: object = None

    def __post_init__(self) -> None:
        if self.injector is None:
            self.injector = self.net.faults

    # -- recording -----------------------------------------------------

    def record_violation(self, invariant: str, detail: str) -> None:
        key = (invariant, detail)
        if key in self._seen_violations:
            return
        self._seen_violations.add(key)
        span_id = None
        tracer = self.sim.tracer
        if tracer is not None and tracer.spans:
            # Anchor forensics at the most recent span: "what was the
            # system doing when the invariant broke".
            span_id = tracer.spans[-1].span_id
        self.violations.append(
            Violation(self.sim.now, invariant, detail, span_id=span_id)
        )

    def record_ground_truth(
        self, kind: str, entity: str, behaviour: str = "", end: float | None = None
    ) -> None:
        """Register a planted intrusion (called by attack actions)."""
        self.ground_truth.append(
            {
                "kind": kind,
                "entity": entity,
                "behaviour": behaviour,
                "start": self.sim.now,
                "end": end,
            }
        )

    def close_ground_truth(self, entity: str, kind: str | None = None) -> None:
        """End the open episode(s) for ``entity`` at the current time."""
        for episode in self.ground_truth:
            if episode["entity"] != entity or episode["end"] is not None:
                continue
            if kind is not None and episode["kind"] != kind:
                continue
            episode["end"] = self.sim.now

    def ground_truth_episodes(self) -> list:
        """The episodes as frozen records, open ones closed at ``now``."""
        return [
            GroundTruthEpisode(
                kind=episode["kind"],
                entity=episode["entity"],
                start=episode["start"],
                end=episode["end"] if episode["end"] is not None else self.sim.now,
                behaviour=episode["behaviour"],
            )
            for episode in self.ground_truth
        ]

    # -- topology helpers ----------------------------------------------

    def all_addresses(self) -> list:
        return self.net.addresses()

    def honest_addresses(self) -> set:
        return {
            pm.address
            for pm in self.system.proxy_masters
            if pm.index not in self.compromised
        }

    def honest_live_replicas(self) -> list:
        return [pm.replica for pm in self.honest_live_proxy_masters()]

    def honest_live_proxy_masters(self) -> list:
        return [
            pm
            for pm in self.system.proxy_masters
            if pm.replica.active
            and pm.index not in self.compromised
            and pm.index not in self.crashed
            and pm.address not in self.system.retired
        ]

    def client_proxies(self) -> list:
        """Every external BFT client (HMI side + field side, all groups)."""
        clients = list(self.system.proxy_hmi.bft_clients)
        for pf in self.system.proxy_frontends:
            clients.extend(pf.bft_clients)
        return clients

    def current_leader_index(self, shard: int = 0) -> int:
        """The *global* index honest replicas of ``shard`` follow."""
        for pm in self.honest_live_proxy_masters():
            if pm.shard != shard:
                continue
            leader = pm.replica.leader  # "replica-<k>" / "s<j>-replica-<k>"
            local = int(leader.rsplit("-", 1)[1])
            return shard * self.config.n + local
        return shard * self.config.n

    def converged(self) -> bool:
        """Every group's honest live replicas agree on their frontier."""
        by_shard: dict = {}
        for pm in self.honest_live_proxy_masters():
            by_shard.setdefault(pm.shard, []).append(pm.replica)
        if not by_shard:
            return False
        for replicas in by_shard.values():
            if len({r.last_decided for r in replicas}) != 1:
                return False
            if len({r.executed_cid for r in replicas}) != 1:
                return False
        return True


@dataclass
class CampaignReport:
    """Outcome of one campaign run."""

    seed: int
    schedule: Schedule
    violations: list
    duration: float
    writes_total: int
    writes_succeeded: int
    writes_failed_cleanly: int
    updates_sent: int
    rejuvenations: int
    events_dispatched: int
    fault_stats: dict
    state_digests: list
    trace_digest: str
    #: Path of the violation span dump written this run (``None`` when
    #: tracing was off or no violation occurred). Diagnostics only —
    #: outside :meth:`fingerprint`.
    trace_dump: str | None = None
    #: CrashRestart recoveries: ``{index, disk, crashed_at, restarted_at,
    #: settled_at}`` per reboot. Diagnostics only — deliberately outside
    #: :meth:`fingerprint` (like ``fault_stats``), which hashes the
    #: behaviour-defining trace and verdicts.
    recoveries: list = field(default_factory=list)
    restarts: int = 0
    #: IDS output: typed :class:`repro.ids.Detection` events, the planted
    #: ground-truth episodes, and the precision/recall/latency score.
    #: Diagnostics only — deliberately outside :meth:`fingerprint`, which
    #: is the IDS-on/off invariance contract.
    detections: list = field(default_factory=list)
    ground_truth: list = field(default_factory=list)
    ids_score: dict | None = None
    #: Adaptive-adversary firings: ``{action, when, time, revert_at}``.
    trigger_fires: list = field(default_factory=list)
    #: Recovery-orchestrator audit trail (dicts from
    #: :meth:`repro.heal.HealAction.as_dict`, blocked attempts included)
    #: and the evicted-and-replaced count. Like the IDS output these
    #: stay outside :meth:`fingerprint` — but note healing *does* change
    #: the fingerprint itself, through the actions it takes.
    heal_actions: list = field(default_factory=list)
    evictions: int = 0
    #: Fleet scoreboard dump (:meth:`repro.obs.fleet.FleetScoreboard.
    #: to_dict`) and the SLO violations it recorded. Diagnostics only —
    #: deliberately outside :meth:`fingerprint`, which is the
    #: scoreboard-on/off invariance contract.
    fleet: dict | None = None
    slo_violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def violated_invariants(self) -> list:
        return sorted({v.invariant for v in self.violations})

    def fingerprint(self) -> str:
        """Bit-stable digest of the run: trace, state and verdicts.

        Two runs with the same seed and schedule must produce identical
        fingerprints — this is the determinism contract the test suite
        asserts by running campaigns twice and against a recorded
        fingerprint (``tests/golden``).
        """
        h = hashlib.sha256()
        h.update(f"seed={self.seed};t={self.duration:.9f};".encode())
        h.update(f"dispatched={self.events_dispatched};".encode())
        h.update(
            f"writes={self.writes_total}/{self.writes_succeeded}/"
            f"{self.writes_failed_cleanly};updates={self.updates_sent};".encode()
        )
        for digest_bytes in self.state_digests:
            h.update(digest_bytes)
        h.update(self.trace_digest.encode())
        for violation in self.violations:
            h.update(
                f"{violation.time:.9f}|{violation.invariant}|"
                f"{violation.detail};".encode()
            )
        return h.hexdigest()

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        extra = ""
        if not self.ok:
            extra = f" [{', '.join(self.violated_invariants())}]"
        return (
            f"{verdict}{extra} seed={self.seed} writes="
            f"{self.writes_succeeded}+{self.writes_failed_cleanly}f/"
            f"{self.writes_total} faults_fired={self.fault_stats.get('total_fired', 0)}"
        )


def _trace_digest(net) -> str:
    if not net.trace.enabled:
        return ""
    h = hashlib.sha256()
    for hop in net.trace.hops:
        h.update(
            f"{hop.src}>{hop.dst}:{hop.kind}:{hop.size}:"
            f"{hop.sent_at:.9f}:{hop.delivered_at:.9f};".encode()
        )
    return h.hexdigest()


class IdsParticipant(InvariantMonitor):
    """The trace-driven intrusion detector, polled on the monitor grid.

    Passive: it subscribes to the span stream and reads counters, so a
    campaign's fingerprint is bit-identical with it on or off. Needs the
    span tracer (``trace_spans``, or any flag that implies it).
    """

    name = "ids"

    def start(self, ctx) -> None:
        config = ctx.config
        features = FeatureExtractor()
        ctx.sim.tracer.subscribe(features.on_span)
        ctx.detector = IntrusionDetector(
            ctx.sim, ctx.net, features, n=config.n, f=config.f
        )

    def poll(self, ctx) -> None:
        ctx.detector.poll()

    def finish(self, ctx) -> None:
        # One last look at the final window before scoring.
        ctx.detector.poll()

    def report(self, ctx) -> dict:
        # Scored against the planted episodes (open ones close at the
        # final clock).
        detections = list(ctx.detector.detections)
        return {
            "detections": detections,
            "ids_score": score_detections(detections, ctx.ground_truth_episodes()),
        }


class HealParticipant(InvariantMonitor):
    """The recovery orchestrator, deciding right after the detector.

    Not passive: it reconfigures and restarts, so a heal campaign's
    fingerprint legitimately differs. Must follow an
    :class:`IdsParticipant` in the list — detect -> corroborate -> act is
    one deterministic pipeline per tick.
    """

    name = "heal"

    def start(self, ctx) -> None:
        heal_config = ctx.config.heal_config
        ctx.orchestrator = RecoveryOrchestrator(
            ctx.sim,
            ctx.net,
            ctx.system,
            detector=ctx.detector,
            config=heal_config if heal_config is not None else HealConfig(),
            handler_config=ctx.handler_config,
        )
        # The admin client reconfigures mid-fault; give it the same
        # keep-probing budget as every other campaign client.
        ctx.orchestrator.admin.proxy.max_attempts = CAMPAIGN_MAX_ATTEMPTS

    def poll(self, ctx) -> None:
        ctx.orchestrator.poll()

    def report(self, ctx) -> dict:
        return {
            "heal_actions": ctx.orchestrator.action_log(),
            "evictions": ctx.orchestrator.evictions,
        }


class FleetParticipant(InvariantMonitor):
    """Fleet scoreboard + SLO burn-rate engine, sampled on the grid.

    Passive. Placed after the IDS and heal participants so each sample
    sees this tick's verdicts and actions; ``scoreboard`` is the public
    handle renderers read.
    """

    name = "fleet"

    def __init__(self) -> None:
        self.scoreboard: FleetScoreboard | None = None

    def start(self, ctx) -> None:
        self.scoreboard = FleetScoreboard(
            ctx.system,
            slo_engine=SloEngine(sim=ctx.sim),
            detector=ctx.detector,
            orchestrator=ctx.orchestrator,
        )

    def poll(self, ctx) -> None:
        self.scoreboard.sample()

    def report(self, ctx) -> dict:
        return {
            "fleet": self.scoreboard.to_dict(),
            "slo_violations": [
                v.as_dict() for v in self.scoreboard.slo_engine.violations
            ],
        }


class FlightRecorder(InvariantMonitor):
    """Failure forensics: dumps the span window around the first
    violation to ``config.trace_dump``, Perfetto-loadable. Passive, and
    last in the list so every liveness verdict is in when it finishes."""

    name = "flight-recorder"

    def __init__(self) -> None:
        self.dumped: str | None = None

    def finish(self, ctx) -> None:
        if not ctx.violations:
            return
        first = min(v.time for v in ctx.violations)
        write_chrome_trace(
            ctx.config.trace_dump,
            ctx.sim.tracer.window(first - TRACE_WINDOW, first + TRACE_WINDOW),
            clock=ctx.sim.now,
        )
        self.dumped = ctx.config.trace_dump

    def report(self, ctx) -> dict:
        return {"trace_dump": self.dumped}


def run_campaign(
    schedule: Schedule,
    config: CampaignConfig | None = None,
    monitors: list | None = None,
) -> CampaignReport:
    """Run one deterministic fault campaign and report the verdicts.

    ``monitors`` is the one control-plane seam: every participant gets
    ``start`` (before the deployment starts), ``poll`` every
    ``POLL_INTERVAL``, ``finish`` at quiesce and ``report`` (extra
    :class:`CampaignReport` fields), in list order. The ``ids`` / ``heal``
    / ``fleet`` / ``trace_dump`` flags append their participant after the
    caller's, in that order.
    """
    config = config if config is not None else CampaignConfig()
    schedule.validate_budget(
        config.f,
        config.horizon,
        config.allow_overload,
        n=config.n,
        shards=config.shards,
    )
    if config.shards > 1 and (config.ids or config.heal):
        raise ValueError(
            "IDS/heal campaigns watch one replica group; run them with "
            "shards=1 (per-group detection on sharded topologies is future "
            "work)"
        )
    monitors = list(monitors) if monitors is not None else default_monitors()
    # Healing needs the detector, which needs the span stream.
    ids_active = config.ids or config.heal
    if ids_active:
        monitors.append(IdsParticipant())
    if config.heal:
        monitors.append(HealParticipant())
    if config.fleet:
        monitors.append(FleetParticipant())
    if config.trace_dump is not None:
        monitors.append(FlightRecorder())

    sim = Simulator(seed=config.seed)
    if config.trace_spans or config.trace_dump is not None or ids_active:
        install_tracer(sim, max_spans=MAX_TRACE_SPANS)
    net = make_network(sim, trace=config.trace)
    system = build_sharded_scada(sim, net=net, config=config.sharded_config())

    sensors = [f"plant.s{i}" for i in range(SENSORS)]
    for sensor in sensors:
        system.frontend.add_item(sensor, initial=0)
    system.frontend.add_item("plant.actuator", initial=0, writable=True)

    def make_chain():
        return HandlerChain([Monitor(high=750.0)])

    for sensor in sensors:
        system.attach_handlers(sensor, make_chain)

    def handler_config(proxy_master) -> None:
        # Fresh incarnations (rejuvenation, Byzantine swap, spares) get
        # their handler chains back from the deployment; the campaign's
        # retry budget is the campaign's to re-apply.
        proxy_master.vote_client.max_attempts = CAMPAIGN_MAX_ATTEMPTS

    ctx = CampaignContext(
        sim=sim,
        net=net,
        system=system,
        config=config,
        handler_config=handler_config,
    )
    ctx.legal_values = {sensor: {0} for sensor in sensors}
    ctx.legal_values["plant.actuator"] = {0}
    heal_times = []
    for action in schedule:
        interval = action.fault_interval(config.horizon)
        if interval is not None:
            heal_times.append(interval[1])
        else:
            heal_times.append(action.end(config.horizon))
    ctx.last_heal = max(heal_times, default=0.0)

    # Participants attach before the deployment starts: the IDS must be
    # subscribed to the tracer before start-up spans flow.
    for monitor in monitors:
        monitor.start(ctx)

    system.start()
    for proxy in ctx.client_proxies():
        proxy.max_attempts = CAMPAIGN_MAX_ATTEMPTS
    for proxy_master in system.proxy_masters:
        handler_config(proxy_master)

    # -- schedule the faults (action times are absolute sim times) ------
    triggered = [a for a in schedule if isinstance(a, TriggeredAction)]
    for action in schedule:
        if isinstance(action, TriggeredAction):
            continue
        sim.defer(max(action.at - sim.now, 0.0), action.apply, ctx)
        end = max(action.end(config.horizon), action.at)
        sim.defer(max(end - sim.now, 0.0), action.revert, ctx)

    # -- adaptive adversaries: evaluate armed triggers on the poll grid -
    for action in triggered:
        # The shrinker replays the same Action objects run after run.
        action.reset_runtime()

    def trigger_evaluator():
        while sim.now < config.horizon:
            if all(action.exhausted for action in triggered):
                return
            yield sim.timeout(POLL_INTERVAL)
            if sim.now > config.horizon:
                return
            for action in triggered:
                if not action.armed(sim.now, config.horizon):
                    continue
                if not action.should_fire(ctx):
                    continue
                if (
                    action.action.replica_fault
                    and not config.allow_overload
                    and active_replica_faults(ctx) >= config.f
                ):
                    # Runtime budget guard: the predicate holds but f
                    # replicas are already faulty — hold fire until one
                    # heals (the static check already charged the worst
                    # case; this keeps lucky timing honest too).
                    continue
                revert_at = action.fire(ctx)
                ctx.trigger_fires.append(
                    {
                        "action": type(action.action).__name__,
                        "when": action.when,
                        "time": sim.now,
                        "revert_at": revert_at,
                    }
                )
                sim.defer(max(revert_at - sim.now, 0.0), action.action.revert, ctx)

    if triggered:
        sim.process(trigger_evaluator(), name="chaos-triggers")

    # -- background traffic --------------------------------------------
    counters = {"updates": 0}

    def update_traffic():
        step = 0
        while sim.now < config.horizon:
            yield sim.timeout(UPDATE_INTERVAL)
            step += 1
            for j, sensor in enumerate(sensors):
                value = sensor_value(step, j)
                ctx.legal_values[sensor].add(value)
                system.frontend.inject_update(sensor, value)
                counters["updates"] += 1

    def write_traffic():
        number = 0
        while sim.now < config.horizon:
            yield sim.timeout(config.write_interval)
            number += 1
            value = (number * 10) % 500 + 3
            record = WriteRecord(
                number=number,
                item_id="plant.actuator",
                value=value,
                submitted=sim.now,
            )
            ctx.writes.append(record)
            ctx.legal_values["plant.actuator"].add(value)
            event = system.hmi.write("plant.actuator", value)

            def on_done(ev, record=record) -> None:
                result = ev.value
                record.completed = sim.now
                record.success = result.success
                record.reason = result.reason

            event.add_callback(on_done)

    def monitor_poller():
        while True:
            yield sim.timeout(POLL_INTERVAL)
            for monitor in monitors:
                monitor.poll(ctx)

    sim.process(update_traffic(), name="chaos-updates")
    sim.process(write_traffic(), name="chaos-writes")
    sim.process(monitor_poller(), name="chaos-monitors")

    # -- run: fault window, then settle until quiesced ------------------
    sim.run(until=config.horizon)
    deadline = config.horizon + SETTLE
    while sim.now < deadline:
        sim.run(until=min(sim.now + 0.5, deadline))
        if ctx.converged() and all(r.completed is not None for r in ctx.writes):
            break

    for monitor in monitors:
        monitor.finish(ctx)
    extra: dict = {}
    for monitor in monitors:
        extra.update(monitor.report(ctx))

    succeeded = sum(1 for r in ctx.writes if r.success)
    failed_cleanly = sum(
        1 for r in ctx.writes if r.completed is not None and not r.success
    )
    return CampaignReport(
        seed=config.seed,
        schedule=schedule,
        violations=list(ctx.violations),
        duration=sim.now,
        writes_total=len(ctx.writes),
        writes_succeeded=succeeded,
        writes_failed_cleanly=failed_cleanly,
        updates_sent=counters["updates"],
        rejuvenations=ctx.rejuvenations,
        events_dispatched=sim.stats()["events_dispatched"],
        fault_stats=sim.stats().get("net.faults", {}),
        state_digests=system.state_digests(),
        trace_digest=_trace_digest(net),
        recoveries=[
            {key: value for key, value in event.items() if key != "proxy_master"}
            for event in ctx.restart_events
        ],
        restarts=ctx.restarts,
        ground_truth=[dict(episode) for episode in ctx.ground_truth],
        trigger_fires=list(ctx.trigger_fires),
        **extra,
    )


def sweep_seeds(
    build_schedule,
    seeds,
    config: CampaignConfig | None = None,
) -> dict:
    """Run one campaign per seed; returns ``{seed: CampaignReport}``.

    ``build_schedule`` is either a fixed :class:`Schedule` (replayed
    under different simulation seeds) or a callable ``fn(seed) ->
    Schedule`` (e.g. :func:`~repro.chaos.schedule.sample_schedule`) for
    randomized campaigns.
    """
    config = config if config is not None else CampaignConfig()
    reports = {}
    for seed in seeds:
        schedule = build_schedule(seed) if callable(build_schedule) else build_schedule
        reports[seed] = run_campaign(schedule, replace(config, seed=seed))
    return reports
