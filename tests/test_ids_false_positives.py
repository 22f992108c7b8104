"""The IDS must stay silent through benign faults.

An intrusion detector that cries wolf during ordinary operational
events — leader crashes, replica restarts, proactive rejuvenation,
transient partitions — would be disabled within a week of deployment.
These tests run the benign end of the drill library with detection
enabled and require *zero* alerts above the threshold, not merely a
favourable ratio. Every scenario here heals on its own and ends with a
passing campaign; any detection at all is a false positive.
"""

import pytest

from repro.chaos import (
    BENIGN_DRILLS,
    DropKind,
    KillLeader,
    Schedule,
    run_campaign,
    run_scenario,
)
from repro.chaos.campaign import CampaignConfig

SEEDS = (1, 3, 7)

#: label -> library scenario (``benign-<label>``).
BENIGN = dict(BENIGN_DRILLS)


@pytest.mark.parametrize("name", sorted(BENIGN))
@pytest.mark.parametrize("seed", SEEDS)
def test_benign_fault_produces_no_detections(name, seed):
    report = run_scenario(BENIGN[name], seed=seed, ids=True)

    assert report.ok, report.violations
    assert not report.detections, (
        f"false positives during benign {name!r}: {report.detections}"
    )
    assert report.ids_score["false_positive_count"] == 0
    # No ground truth was planted, so scoring must be vacuous.
    assert report.ids_score["episodes"] == 0


def test_leader_change_storm_stays_clean():
    """Back-to-back leader kills — the worst benign case for the
    equivocation detector, which watches suspicion bursts."""
    schedule = Schedule([
        KillLeader(at=1.5, duration=1.0),
        KillLeader(at=4.0, duration=1.0),
    ])
    report = run_campaign(schedule, CampaignConfig(seed=3, ids=True))
    assert report.ok, report.violations
    assert not report.detections



def test_a_stalled_proposal_is_not_blamed_on_the_leader():
    """Every ACCEPT is lost for longer than ``request_timeout``: the
    leader's proposal never decides, so every follower suspects it
    first-hand with cause ``stalled``. Message loss does that to a
    correct leader, so it is no equivocation signature."""
    schedule = Schedule([DropKind(at=1.5, duration=1.5, kind="AcceptMsg")])
    report = run_campaign(schedule, CampaignConfig(seed=3, ids=True))
    assert report.ok, report.violations
    assert not [d for d in report.detections if d.kind == "byzantine-equivocating"]
