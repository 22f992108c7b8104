"""Named chaos scenarios reproducing the paper's attack discussion.

Each scenario packages a fault schedule plus any campaign-config
overrides, and states whether the invariants are *expected* to hold.
``expect_violation=True`` scenarios deliberately exceed the ``n ≥ 3f+1``
assumption (more than ``f`` simultaneous Byzantine replicas) to prove
the monitors catch real safety violations — they are the chaos engine's
own regression tests.

Run one with ``python -m repro chaos <name>`` or
:func:`run_scenario`; list them with ``python -m repro chaos --list``.
:data:`IDS_ATTACK_DRILLS` and :data:`BENIGN_DRILLS` name the two
evaluation matrices ``python -m repro ids`` and ``heal`` sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.chaos.adaptive import TriggeredAction
from repro.chaos.campaign import CampaignConfig, CampaignReport, run_campaign
from repro.chaos.monitors import AvailabilityMonitor, MttrMonitor, default_monitors
from repro.chaos.schedule import (
    ClientGarbage,
    CrashReplica,
    CrashRestart,
    DelayKind,
    DropKind,
    FieldOffline,
    InjectWrites,
    IsolateReplicas,
    KillLeader,
    PartialMulticast,
    PartitionNet,
    Rejuvenate,
    Schedule,
    SpoofFrontend,
    SwapByzantine,
)
from repro.heal import HealConfig

#: Overrides for the intact crash-restart drill. The checkpoint interval
#: is deliberately *longer* than the decisions the horizon produces: the
#: peers never checkpoint past the rebooted replica's recovered position,
#: so they still hold the log tail it needs and the reboot can rejoin by
#: WAL replay + partial transfer alone (the invariant the
#: durable-recovery monitor enforces). Once peers checkpoint beyond that
#: point they truncate their logs and a full transfer becomes the only
#: correct answer — that trade-off is the checkpoint-frequency vs
#: log-retention tension, exercised separately in the recovery tests.
_DURABLE_INTACT = {"durability": True, "checkpoint_interval": 40}

#: Overrides for the damaged-disk drills: checkpoints frequent enough
#: that one lands on the victim's disk *before* the crash fault hits it,
#: so digest verification runs against real on-disk state (checkpoint +
#: torn/corrupt WAL tail) rather than an empty device. The victim has
#: decided cids 0-9 when the power is cut at 1.5 s; every sixth cid
#: checkpoints, so four WAL records follow the checkpoint at cid 5 (an
#: interval of 5 would checkpoint cid 9 and leave no record to damage).
_DURABLE_DAMAGED = {"durability": True, "checkpoint_interval": 6}

#: Overrides for the ``pipelined-*`` drills: the same faults as their
#: sequential counterparts, but with the consensus pipeline open — the
#: leader keeps several instances in flight, so crashes and restarts hit
#: a window of undecided cids instead of at most one.
_PIPELINED = {"pipeline_depth": 4}

#: Overrides for the ``heal-evict-*`` drills: the closed self-healing
#: loop under the hardened zero-trust profile — every confirmed
#: Byzantine replica is evicted and replaced, not reimaged (reimaging a
#: swapped compromise would *cure* it, so these drills could never
#: exercise the reconfiguration path).
_HEAL_ZERO_TRUST = {"heal": True, "heal_config": HealConfig.zero_trust()}


@dataclass(frozen=True)
class Scenario:
    """One named fault drill."""

    name: str
    description: str
    build: object  # fn() -> Schedule
    expect_violation: bool = False
    #: CampaignConfig field overrides for this scenario: ones that change
    #: the run's behaviour or shape (``heal``, ``shards``, ``horizon``,
    #: ``write_interval``, ...), never a passive participant (``ids``,
    #: ``fleet``, tracing), which stays the caller's view choice.
    overrides: dict = field(default_factory=dict)

    def schedule(self) -> Schedule:
        return self.build()

    def config(self, base: CampaignConfig | None = None, **extra) -> CampaignConfig:
        base = base if base is not None else CampaignConfig()
        merged = dict(self.overrides)
        merged.update(extra)
        return replace(base, **merged) if merged else base


def _drop_write_value() -> Schedule:
    # §IV-D's drop attack: WriteValue messages to the field vanish; the
    # logical-timeout protocol must fail the writes deterministically.
    return Schedule([
        DropKind(at=1.0, duration=4.0, kind="WriteValue", dst="frontend-0"),
    ])


def _drop_write_result() -> Schedule:
    # The dual attack: the field executes but its WriteResult never
    # returns; the operator must still get a deterministic outcome.
    return Schedule([
        DropKind(at=1.0, duration=4.0, kind="WriteResult", src="frontend-0"),
    ])


def _leader_crash() -> Schedule:
    # Kill the consensus leader mid-campaign while writes are in flight;
    # the synchronization phase must elect a successor and keep going.
    return Schedule([
        KillLeader(at=1.5, duration=3.0),
    ])


def _shard_leader_kills() -> Schedule:
    # Kill the leaders of BOTH groups at the same instant. Each group
    # carries its own f budget, so this is in budget (one fault per
    # group) and every invariant must stay green — the sharded
    # deployment's independence claim, falsified if either group's
    # outage bleeds into the other.
    return Schedule([
        KillLeader(at=1.5, duration=3.0, shard=0),
        KillLeader(at=1.5, duration=3.0, shard=1),
    ])


def _partition_minority() -> Schedule:
    # One replica isolated from everything: the remaining 3 of 4 form a
    # quorum and keep deciding; the returnee state-transfers back in.
    return Schedule([
        IsolateReplicas(at=1.0, duration=3.0, indices=(3,)),
    ])


def _partition_split() -> Schedule:
    # A 2/2 split: no quorum on either side, so consensus stalls — then
    # the heal must restore liveness within the bound.
    return Schedule([
        PartitionNet(at=1.5, duration=2.0, groups=((0, 1), (2, 3))),
    ])


def _silent_replica() -> Schedule:
    # A replica goes mute (crash-like Byzantine) for most of the run.
    return Schedule([
        SwapByzantine(at=1.0, duration=4.0, index=2, behaviour="silent"),
    ])


def _falsifying_replica() -> Schedule:
    # One compromised replica forges field readings. With f=1 its
    # forgeries can never reach the proxies' f+1 push vote, so the HMI
    # keeps showing the truth.
    return Schedule([
        SwapByzantine(at=1.0, duration=4.0, index=1, behaviour="falsifying"),
    ])


def _rejuvenation_under_fire() -> Schedule:
    # Proactive recovery while a WriteResult drop attack is active and
    # writes are in flight: the logical timeout must still unblock the
    # operator and the fresh replica must state-transfer in.
    return Schedule([
        DropKind(at=0.8, duration=4.2, kind="WriteResult", src="frontend-0"),
        Rejuvenate(at=2.0, index=1),
        Rejuvenate(at=4.0, index=2),
    ])


def _rolling_crashes() -> Schedule:
    # Sequential (never simultaneous) crash/recover across the group.
    return Schedule([
        CrashReplica(at=0.8, duration=1.0, index=0),
        CrashReplica(at=2.2, duration=1.0, index=1),
        CrashReplica(at=3.6, duration=1.0, index=2),
    ])


def _crash_restart(disk: str) -> Schedule:
    # Power-cut one replica mid-campaign with the given disk fault and
    # reboot it from whatever the device honestly retained. ``intact``
    # must rejoin by WAL replay + log-tail transfer alone; damaged disks
    # must be caught by digest verification and fall back to the full
    # transfer with no safety violation; ``wiped`` is exactly the
    # rejuvenation path.
    return Schedule([
        CrashRestart(at=1.5, duration=2.0, index=2, disk=disk),
    ])


def _crash_restart_under_load() -> Schedule:
    # Power-cut the leader (intact disk) and reboot it while the plant
    # keeps reporting. The group elects a successor meanwhile, so the
    # reboot comes back a regency behind; traffic runs on for 3 s after
    # it, and the redundancy-restored monitor wants it voting in the
    # live regency again within a request timeout.
    return Schedule([
        CrashRestart(at=1.0, duration=2.0, index=0, disk="intact"),
    ])


def _write_injection() -> Schedule:
    # Command injection from a hijacked HMI session: a flood of operator
    # writes over the legitimate replicated path. Safety holds (the
    # values are legal) — only the write *pattern* is anomalous, so this
    # drill exists for the IDS's write-burst detector.
    return Schedule([
        InjectWrites(at=2.0, count=24, interval=0.03),
    ])


def _frontend_spoof() -> Schedule:
    # A rogue endpoint floods forged requests under a real client's
    # identity; every secure channel rejects them, and the per-replica
    # rejection counters climbing in lockstep is the IDS signature.
    return Schedule([
        SpoofFrontend(at=2.0, count=30, interval=0.03),
    ])


def _client_garbage() -> Schedule:
    # A compromised Frontend station seals malformed frames under its own
    # key: each costs one rejected envelope at every replica, no more.
    return Schedule([
        ClientGarbage(at=2.0, count=30, interval=0.03),
    ])


def _client_partial_multicast() -> Schedule:
    # A compromised Frontend station leaves the leader out of every
    # multicast for 3 s. The followers forward its requests; the leader
    # orders them and stays the leader.
    return Schedule([
        PartialMulticast(at=1.5, duration=3.0),
    ])


def _slow_leader() -> Schedule:
    # The performance adversary: the leader holds every PROPOSE for just
    # under request_timeout. The followers' patience runs out long before
    # and they replace it; the throughput-floor monitor states what share
    # of its writes the group kept meanwhile.
    return Schedule([
        SwapByzantine(at=1.5, duration=3.0, index=0, behaviour="slow"),
    ])


def _adaptive_window_partition() -> Schedule:
    # Adaptive adversary: wait until the consensus pipeline window has
    # filled (an instance in flight), then split the group 2/2 so the
    # in-flight window straddles a quorumless partition.
    return Schedule([
        TriggeredAction(
            at=0.3,
            when="pipeline-full",
            action=PartitionNet(duration=1.5, groups=((0, 1), (2, 3))),
        ),
    ])


def _adaptive_transfer_leader_kill() -> Schedule:
    # Adaptive adversary: provoke a state transfer (isolate a replica,
    # then heal it), and the moment the transfer is observed running,
    # kill the leader — the recovering replica loses its catch-up source
    # mid-stream and must survive the concurrent leader change.
    return Schedule([
        IsolateReplicas(at=0.8, duration=1.0, indices=(3,)),
        TriggeredAction(
            at=1.5,
            duration=3.0,
            when="state-transfer-active",
            action=KillLeader(duration=1.5),
        ),
    ])


def _adaptive_warmup_swap() -> Schedule:
    # IDS-aware adversary: hold the compromise until the intrusion
    # detector's warm-up window has just elapsed, then swap a replica to
    # falsifying — no free learning period, the detector must flag it
    # from live windows alone.
    return Schedule([
        TriggeredAction(
            at=0.5,
            when="ids-warmup-done",
            action=SwapByzantine(index=2, behaviour="falsifying", duration=3.0),
        ),
    ])


def _adaptive_overbudget_swap() -> Schedule:
    # DELIBERATELY over budget, adaptively: two armed triggers each
    # holding a long falsifying swap. The static budget check charges
    # each trigger from its arm time to the horizon, so this schedule is
    # rejected without allow_overload — predicate timing cannot sneak
    # past ``n >= 3f+1``. Forced through, the colluding forgeries reach
    # the f+1 push vote and the hmi-truth monitor must catch it.
    return Schedule([
        TriggeredAction(
            at=0.5,
            when="always",
            action=SwapByzantine(index=1, behaviour="falsifying", duration=4.5),
        ),
        TriggeredAction(
            at=0.7,
            when="always",
            action=SwapByzantine(index=2, behaviour="falsifying", duration=4.3),
        ),
    ])


def _overbudget_falsify() -> Schedule:
    # DELIBERATELY over budget: two simultaneous falsifying replicas
    # (f=1) collude — their byte-identical forgeries reach the f+1 push
    # vote and the HMI displays a value the field never produced. The
    # hmi-truth monitor must flag this as a safety violation. Extra
    # network noise rides along so the shrinker has something to strip.
    return Schedule([
        SwapByzantine(at=0.6, duration=4.8, index=1, behaviour="falsifying"),
        SwapByzantine(at=0.8, duration=4.6, index=2, behaviour="falsifying"),
        DelayKind(at=1.0, duration=3.0, kind="WriteMsg", extra=0.002),
        DropKind(at=1.2, duration=2.0, kind="PushMessage", probability=0.1),
        FieldOffline(at=4.4, duration=0.8, frontend=0),
    ])


def _heal_attack(behaviour: str, index: int) -> Schedule:
    # An *unbounded* compromise (no duration): nothing in the schedule
    # ever heals it — only the recovery orchestrator can, by evicting
    # the suspect through a consensus reconfiguration. Equivocation is a
    # leader behaviour, so that drill compromises the initial leader.
    return Schedule([
        SwapByzantine(at=1.2, index=index, behaviour=behaviour),
    ])


def _heal_quorum_guard() -> Schedule:
    # One replica machine is already down when a second goes silent
    # Byzantine: evicting (or reimaging) the suspect would drop the live
    # group to 2 < 2f+1. The orchestrator must refuse — every action on
    # the suspect logged as blocked, escalating to an operator alarm —
    # and the group must recover on its own once the faults heal.
    return Schedule([
        CrashReplica(at=0.8, duration=4.0, index=3),
        SwapByzantine(at=1.2, duration=4.0, index=2, behaviour="silent"),
    ])


def _heal_scenarios() -> tuple:
    drills = []
    for behaviour, index in (
        ("silent", 2),
        ("stuttering", 2),
        ("lying", 2),
        ("falsifying", 2),
        ("equivocating", 0),
    ):
        drills.append(
            Scenario(
                name=f"heal-evict-{behaviour}",
                description=f"SELF-HEAL: permanent {behaviour} compromise; the"
                " orchestrator must evict-and-replace it via reconfiguration",
                build=(lambda b=behaviour, i=index: _heal_attack(b, i)),
                overrides=dict(_HEAL_ZERO_TRUST),
            )
        )
    drills.append(
        Scenario(
            name="heal-benign-leader-kill",
            description="SELF-HEAL negative drill: a benign leader crash and"
            " recovery; the orchestrator must take zero actions",
            build=_leader_crash,
            overrides={"heal": True},
        )
    )
    drills.append(
        Scenario(
            name="heal-quorum-guard",
            description="SELF-HEAL guard drill: a suspect appears while"
            " another replica is down; every action must be refused"
            " (blocked -> alarm), never eroding the 2f+1 quorum",
            build=_heal_quorum_guard,
            # The double fault stalls consensus, which eventually clears
            # the (progress-relative) silence verdict — escalate to the
            # alarm within the window the detector can still corroborate.
            overrides={
                "heal": True,
                "allow_overload": True,
                "heal_config": HealConfig(blocked_alarm_after=3),
            },
        )
    )
    return tuple(drills)


def _ids_swap(behaviour: str) -> Schedule:
    # A bounded compromise planted after the detector's warm-up. As in
    # the heal drills, equivocation compromises the initial leader.
    index = 0 if behaviour == "equivocating" else 2
    return Schedule([
        SwapByzantine(at=1.5, index=index, behaviour=behaviour, duration=3.0),
    ])


def _ids_scenarios() -> tuple:
    return tuple(
        Scenario(
            name=f"ids-{behaviour}",
            description=f"IDS matrix: a replica turns {behaviour} for 3 s;"
            " the detector must name it with the right label",
            build=(lambda b=behaviour: _ids_swap(b)),
        )
        for behaviour in ("silent", "lying", "falsifying", "equivocating",
                          "stuttering")
    )


def _benign_scenarios() -> tuple:
    # Ordinary operational faults that heal on their own: the detector
    # must raise nothing through them and the orchestrator must stay idle.
    drills = (
        ("kill-leader", "the leader crashes for 1.5 s",
         lambda: Schedule([KillLeader(at=1.5, duration=1.5)]), {}),
        ("crash-recover", "a backup crashes for 2 s",
         lambda: Schedule([CrashReplica(at=1.2, index=1, duration=2.0)]), {}),
        ("crash-restart", "a durable backup power-cycles for 1 s",
         lambda: Schedule([CrashRestart(at=1.5, index=2, duration=1.0)]),
         {"durability": True}),
        ("rejuvenation", "a backup is proactively rejuvenated",
         lambda: Schedule([Rejuvenate(at=2.0, index=2)]), {}),
        ("partition-split", "a 2/2 split for 1 s",
         lambda: Schedule([
             PartitionNet(at=1.5, duration=1.0, groups=((0, 1), (2, 3)))
         ]), {}),
    )
    return tuple(
        Scenario(
            name=f"benign-{label}",
            description=f"BENIGN suite: {what}; no detection, no heal action",
            build=build,
            overrides=overrides,
        )
        for label, what, build, overrides in drills
    )


#: Two shards with dense operator writes: what the fleet scoreboard's
#: latency and availability objectives need to sample.
_FLEET = {"shards": 2, "write_interval": 0.4}

SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="drop-write-value",
            description="§IV-D drop attack: WriteValue to the field vanishes;"
            " writes must fail deterministically via the logical timeout",
            build=_drop_write_value,
        ),
        Scenario(
            name="drop-write-result",
            description="WriteResult from the field vanishes; the operator"
            " still gets a deterministic outcome",
            build=_drop_write_result,
        ),
        Scenario(
            name="leader-crash",
            description="crash the consensus leader under write load; a"
            " successor must take over",
            build=_leader_crash,
        ),
        Scenario(
            name="shard-leader-kills",
            description="SHARDED: kill the leaders of two groups at the same"
            " instant; each group's own f budget absorbs it, monitors green",
            build=_shard_leader_kills,
            overrides={"shards": 2},
        ),
        Scenario(
            name="partition-minority",
            description="isolate one replica; the majority keeps deciding and"
            " the returnee catches up",
            build=_partition_minority,
        ),
        Scenario(
            name="partition-split",
            description="2/2 split stalls consensus; healing restores"
            " liveness within the bound",
            build=_partition_split,
        ),
        Scenario(
            name="silent-replica",
            description="one replica goes mute for most of the run"
            " (crash-like Byzantine)",
            build=_silent_replica,
        ),
        Scenario(
            name="falsifying-replica",
            description="one compromised replica forges field readings; the"
            " f+1 push vote keeps the HMI truthful",
            build=_falsifying_replica,
        ),
        Scenario(
            name="rejuvenation-under-fire",
            description="proactive recovery while a WriteResult drop attack"
            " is active and writes are in flight",
            build=_rejuvenation_under_fire,
        ),
        Scenario(
            name="rolling-crashes",
            description="sequential crash/recover across the group, never"
            " more than f at once",
            build=_rolling_crashes,
        ),
        Scenario(
            name="crash-restart-intact",
            description="power-cut a replica with a durable disk; it must"
            " rejoin from WAL replay + log-tail transfer, no snapshot",
            build=lambda: _crash_restart("intact"),
            overrides=_DURABLE_INTACT,
        ),
        Scenario(
            name="crash-restart-torn",
            description="crash leaves a torn WAL tail write; digest checks"
            " must catch it and fall back to full transfer",
            build=lambda: _crash_restart("torn"),
            overrides=_DURABLE_DAMAGED,
        ),
        Scenario(
            name="crash-restart-corrupt",
            description="silent bit flip on the durable log; digest checks"
            " must catch it and fall back to full transfer",
            build=lambda: _crash_restart("corrupt"),
            overrides=_DURABLE_DAMAGED,
        ),
        Scenario(
            name="crash-restart-wiped",
            description="total disk loss on crash; recovery must behave"
            " exactly like proactive rejuvenation (full transfer)",
            build=lambda: _crash_restart("wiped"),
            overrides=_DURABLE_DAMAGED,
        ),
        Scenario(
            name="crash-restart-under-load",
            description="power-cut the leader with a durable disk and reboot"
            " it under traffic; it must adopt the successor's regency and"
            " rejoin consensus while the traffic still flows",
            build=_crash_restart_under_load,
            overrides=_DURABLE_INTACT,
        ),
        Scenario(
            name="pipelined-leader-crash",
            description="crash the leader with pipeline_depth=4 — a window"
            " of undecided cids must be re-proposed by the successor",
            build=_leader_crash,
            overrides=_PIPELINED,
        ),
        Scenario(
            name="pipelined-crash-restart",
            description="power-cut a durable replica while the consensus"
            " pipeline is open; WAL replay must restore execution order",
            build=lambda: _crash_restart("intact"),
            overrides={**_DURABLE_INTACT, **_PIPELINED},
        ),
        Scenario(
            name="write-injection",
            description="command-injection write burst over the legitimate"
            " path; safety holds, the IDS write-burst detector must flag it",
            build=_write_injection,
        ),
        Scenario(
            name="frontend-spoof",
            description="rogue endpoint floods forged client requests; the"
            " secure channels reject them and the IDS flags the ingress",
            build=_frontend_spoof,
        ),
        Scenario(
            name="client-garbage",
            description="a compromised client seals malformed frames under"
            " its own key; the codec fails closed, every replica rejects"
            " them and keeps ordering",
            build=_client_garbage,
        ),
        Scenario(
            name="client-partial-multicast",
            description="a compromised client leaves the leader out of its"
            " multicasts; followers forward its requests and the leader"
            " stays",
            build=_client_partial_multicast,
        ),
        Scenario(
            name="slow-leader",
            description="the leader delays every PROPOSE to just under the"
            " request timeout; followers replace it and the group keeps"
            " its write throughput",
            build=_slow_leader,
            # Dense writes: the throughput floor is judged on them.
            overrides={"write_interval": 0.25},
        ),
        Scenario(
            name="adaptive-window-partition",
            description="ADAPTIVE: partition 2/2 the moment the consensus"
            " pipeline window fills; the in-flight instance must survive",
            build=_adaptive_window_partition,
        ),
        Scenario(
            name="adaptive-transfer-leader-kill",
            description="ADAPTIVE: kill the leader the instant a state"
            " transfer is observed running",
            build=_adaptive_transfer_leader_kill,
        ),
        Scenario(
            name="adaptive-warmup-swap",
            description="ADAPTIVE, IDS-aware: swap a replica to falsifying"
            " right after the detector's warm-up window elapses",
            build=_adaptive_warmup_swap,
        ),
        Scenario(
            name="adaptive-overbudget-swap",
            description="ATTACK DRILL (expected safety violation): two armed"
            " triggers exceed the fault budget; rejected without"
            " allow_overload, caught by the monitors when forced",
            build=_adaptive_overbudget_swap,
            expect_violation=True,
            overrides={"allow_overload": True},
        ),
        Scenario(
            name="overbudget-falsify",
            description="ATTACK DRILL (expected safety violation): two"
            " colluding falsifying replicas out-vote the f+1 push quorum",
            build=_overbudget_falsify,
            expect_violation=True,
            overrides={"allow_overload": True},
        ),
        Scenario(
            name="fleet-leader-kill",
            description="FLEET: kill shard 0's leader at t=2 s for 2 s; with"
            " --fleet the board degrades, recovers and the availability"
            " SLO burns",
            build=lambda: Schedule([KillLeader(at=2.0, duration=2.0)]),
            overrides=dict(_FLEET),
        ),
        Scenario(
            name="fleet-baseline",
            description="FLEET: two groups and no fault for 2 s; with --fleet"
            " the board stays ok and no SLO burns",
            build=Schedule,
            overrides={**_FLEET, "horizon": 2.0},
        ),
        *_heal_scenarios(),
        *_ids_scenarios(),
        *_benign_scenarios(),
    )
}

#: The IDS evaluation matrix: (ground-truth label, scenario) per attack.
IDS_ATTACK_DRILLS = (
    ("silent", "ids-silent"),
    ("lying", "ids-lying"),
    ("falsifying", "ids-falsifying"),
    ("equivocating", "ids-equivocating"),
    ("stuttering", "ids-stuttering"),
    ("write-burst", "write-injection"),
    ("spoof", "frontend-spoof"),
)
#: The benign suite the detector and the orchestrator must sit through
#: quietly: (label, scenario).
BENIGN_DRILLS = tuple(
    (name.removeprefix("benign-"), name)
    for name in SCENARIOS
    if name.startswith("benign-")
)


def list_scenarios() -> list:
    """All scenarios, library ones first, attack drills last."""
    return sorted(
        SCENARIOS.values(), key=lambda s: (s.expect_violation, s.name)
    )


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def run_scenario(
    name: str,
    seed: int = 0,
    config: CampaignConfig | None = None,
    **overrides,
) -> CampaignReport:
    """Run one named scenario under the given seed."""
    scenario = get_scenario(name)
    cfg = scenario.config(config, seed=seed, **overrides)
    return run_campaign(scenario.schedule(), cfg)


def run_heal_drill(behaviour: str, seed: int = 0) -> dict:
    """Run ``heal-evict-<behaviour>`` with the MTTR and availability
    monitors in, and return the recovery measurements as one dict.

    Operator writes are dense (every 0.25 s) so the availability series
    has enough samples to compare write throughput before the attack,
    under it, and after the orchestrator healed the group.
    """
    scenario = get_scenario(f"heal-evict-{behaviour}")
    mttr = MttrMonitor()
    avail = AvailabilityMonitor()
    report = run_campaign(
        scenario.schedule(),
        scenario.config(seed=seed, write_interval=0.25),
        monitors=default_monitors() + [mttr, avail],
    )
    episode = next(m for m in mttr.measurements if m["behaviour"] == behaviour)
    attack_at, healed_at = episode["start"], episode["healed_at"]
    pre = avail.rate(0.2, attack_at)
    during = post = recovered = None
    if healed_at is not None:
        during = avail.rate(attack_at, healed_at)
        post = avail.rate(healed_at + 0.3, avail.samples[-1][0])
        recovered = post / pre if pre > 0 else None
    return {
        "behaviour": behaviour,
        "violations": report.violations,
        "evictions": report.evictions,
        "heal_actions": report.heal_actions,
        "attack_at": attack_at,
        "healed_at": healed_at,
        "detect_latency": episode["detect_latency"],
        "heal_latency": episode["heal_latency"],
        "ops_pre": pre,
        "ops_during": during,
        "ops_post": post,
        #: Post-heal write rate over the pre-attack rate.
        "recovered": recovered,
    }
