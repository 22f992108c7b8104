"""End-to-end tests for closed-loop self-healing inside chaos campaigns.

The acceptance story of the heal subsystem, as campaigns: a planted
Byzantine replica is evicted and replaced with every safety/liveness
monitor green; benign faults never trigger the orchestrator; the quorum
guard refuses unsafe actions under a double fault; and with healing
disabled the campaign fingerprint is exactly the feature-absent one.
(The action log itself is pinned by ``tests/golden``, ``deployment``.)
"""

from repro.chaos import (
    CrashReplica,
    KillLeader,
    Schedule,
    SwapByzantine,
    run_campaign,
    run_scenario,
)
from repro.chaos.campaign import CampaignConfig
from repro.heal import HealConfig

SEED = 3


def test_eviction_drill_replaces_byzantine_replica():
    report = run_scenario("heal-evict-falsifying", seed=SEED)
    assert report.ok, report.violations
    assert report.evictions == 1
    completed = [
        a for a in report.heal_actions if a["outcome"] == "completed"
    ]
    assert [a["kind"] for a in completed] == ["evict"]
    assert completed[0]["target"] == "replica-2"
    assert completed[0]["trigger_kind"] == "byzantine-falsifying"
    assert "replaced by replica-4" in completed[0]["detail"]


def test_eviction_handles_byzantine_leader():
    """Evicting the *initial leader* exercises reconfiguration through a
    regency the suspect no longer controls."""
    report = run_scenario("heal-evict-equivocating", seed=SEED)
    assert report.ok, report.violations
    assert report.evictions == 1
    assert any(
        a["target"] == "replica-0" and a["outcome"] == "completed"
        for a in report.heal_actions
    )


def test_benign_faults_never_trigger_the_orchestrator():
    report = run_scenario("heal-benign-leader-kill", seed=SEED)
    assert report.ok, report.violations
    assert report.heal_actions == []
    assert report.evictions == 0


def test_quorum_guard_blocks_unsafe_recovery():
    """Double fault: with one replica crashed, acting on the (detected)
    silent one would drop the group below 2f+1 — every attempt must be
    refused and escalate to an operator alarm, never an eviction."""
    report = run_scenario("heal-quorum-guard", seed=SEED)
    assert report.ok, report.violations
    assert report.evictions == 0
    outcomes = {a["outcome"] for a in report.heal_actions}
    assert "blocked" in outcomes
    assert "completed" not in outcomes
    alarms = [a for a in report.heal_actions if a["outcome"] == "raised"]
    assert len(alarms) == 1
    assert "quorum guard refused" in alarms[0]["detail"]


def test_heal_disabled_fingerprint_matches_feature_absent():
    """The plumbing added for healing must be invisible when off: the
    same campaign fingerprints identically with heal absent, with the
    passive IDS on, and with heal explicitly disabled alongside it."""
    schedule = Schedule([
        KillLeader(at=1.5, duration=1.5),
        CrashReplica(at=3.5, index=2, duration=1.0),
    ])
    plain = run_campaign(schedule, CampaignConfig(seed=SEED))
    ids_only = run_campaign(schedule, CampaignConfig(seed=SEED, ids=True))
    ids_no_heal = run_campaign(
        schedule, CampaignConfig(seed=SEED, ids=True, heal=False)
    )
    assert plain.fingerprint() == ids_only.fingerprint()
    assert plain.fingerprint() == ids_no_heal.fingerprint()
    assert ids_no_heal.heal_actions == []


def test_healing_restores_liveness_after_open_ended_attack():
    """Without healing an open-ended Byzantine swap only ends at the
    horizon; with it, the suspect is evicted early and every operator
    write still completes."""
    schedule = Schedule([
        SwapByzantine(at=1.2, index=2, behaviour="lying"),
    ])
    config = CampaignConfig(
        seed=SEED, heal=True, heal_config=HealConfig.zero_trust()
    )
    report = run_campaign(schedule, config)
    assert report.ok, report.violations
    assert report.evictions == 1
    assert report.writes_total > 0
    assert report.writes_succeeded == report.writes_total
    evicted_at = next(
        a["completed_at"]
        for a in report.heal_actions
        if a["outcome"] == "completed"
    )
    assert evicted_at < config.horizon  # healed well before the fault "ends"
