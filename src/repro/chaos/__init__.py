"""Chaos campaign engine: scheduled + randomized fault drills.

The paper's central claim is that SMaRt-SCADA stays correct and live
*under attack* — dropped WriteValue/WriteResult messages (§IV-D), a
Byzantine or crashed leader, replica compromise inside a rejuvenation
window. This package turns that claim into a machine-checkable property:

- :mod:`repro.chaos.schedule` — composable, time-stamped fault actions
  (crash/restart, kill-the-leader, partition/heal, Byzantine swap,
  message-class drops, field devices offline, rejuvenation) plus a
  seeded sampler that generates schedules within a fault budget;
- :mod:`repro.chaos.monitors` — safety and liveness invariants checked
  continuously while a campaign runs;
- :mod:`repro.chaos.campaign` — the deterministic campaign runner and
  seed-sweep driver;
- :mod:`repro.chaos.scenarios` — a library of named scenarios
  reproducing the paper's attack discussion;
- :mod:`repro.chaos.adaptive` — adaptive adversaries: any action wrapped
  in a :class:`~repro.chaos.adaptive.TriggeredAction` fires on an
  *observed* predicate (pipeline full, state transfer active, IDS
  warm-up elapsed) instead of a wall time, still inside the fault
  budget;
- :mod:`repro.chaos.shrink` — minimizes a failing schedule to the
  smallest one still violating an invariant and emits a replayable
  Python snippet.

Every campaign is bit-deterministic: the same seed and schedule produce
the identical event trace and the identical invariant verdicts.
"""

from repro.chaos.adaptive import PREDICATES, TriggeredAction
from repro.chaos.campaign import (
    CampaignConfig,
    CampaignReport,
    run_campaign,
    sweep_seeds,
)
from repro.chaos.monitors import (
    AvailabilityMonitor,
    MttrMonitor,
    ThroughputFloorMonitor,
    Violation,
)
from repro.chaos.schedule import (
    BEHAVIOURS,
    FALSIFY_OFFSET,
    Action,
    ChaosBudgetError,
    ClientGarbage,
    CrashReplica,
    DelayKind,
    DropKind,
    Falsifying,
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
    sample_schedule,
    swap_replica_behaviour,
)
from repro.chaos.scenarios import (
    BENIGN_DRILLS,
    IDS_ATTACK_DRILLS,
    SCENARIOS,
    Scenario,
    get_scenario,
    list_scenarios,
    run_heal_drill,
    run_scenario,
)
from repro.chaos.shrink import ShrinkResult, replay_snippet, shrink_schedule

__all__ = [
    "Action",
    "AvailabilityMonitor",
    "BEHAVIOURS",
    "BENIGN_DRILLS",
    "CampaignConfig",
    "MttrMonitor",
    "CampaignReport",
    "ChaosBudgetError",
    "ClientGarbage",
    "CrashReplica",
    "DelayKind",
    "DropKind",
    "FALSIFY_OFFSET",
    "Falsifying",
    "FieldOffline",
    "IDS_ATTACK_DRILLS",
    "InjectWrites",
    "IsolateReplicas",
    "KillLeader",
    "PREDICATES",
    "PartialMulticast",
    "PartitionNet",
    "Rejuvenate",
    "SCENARIOS",
    "Scenario",
    "Schedule",
    "ShrinkResult",
    "SpoofFrontend",
    "SwapByzantine",
    "ThroughputFloorMonitor",
    "TriggeredAction",
    "Violation",
    "get_scenario",
    "list_scenarios",
    "replay_snippet",
    "run_campaign",
    "run_heal_drill",
    "run_scenario",
    "sample_schedule",
    "shrink_schedule",
    "swap_replica_behaviour",
    "sweep_seeds",
]
