"""Fast chaos smoke campaign (tier-1).

A trimmed-down drill on every commit: one cheap scenario over 3 seeds,
plus the bit-determinism contract — same seed + schedule produce the
identical event trace and invariant verdicts, run after run, and the
ones recorded from the un-cached code paths before they were deleted.
"""

from repro.chaos import get_scenario, run_campaign
from repro.chaos.campaign import CampaignConfig
from tests.golden import GOLDEN

SMOKE_SCENARIO = "drop-write-value"


def test_smoke_campaign_three_seeds():
    scenario = get_scenario(SMOKE_SCENARIO)
    for seed in range(3):
        report = run_campaign(scenario.schedule(), scenario.config(seed=seed))
        assert report.ok, (
            f"seed {seed} violated: "
            f"{[(v.invariant, v.detail) for v in report.violations]}"
        )
        # The drop attack was live: some writes must have failed through
        # the deterministic logical-timeout path, none hung.
        assert report.writes_total > 0
        assert report.writes_failed_cleanly > 0
        assert (
            report.writes_succeeded + report.writes_failed_cleanly
            == report.writes_total
        )


def test_campaign_is_bit_deterministic():
    scenario = get_scenario(SMOKE_SCENARIO)
    config = scenario.config(CampaignConfig(seed=5, trace=True))

    first = run_campaign(scenario.schedule(), config)
    second = run_campaign(scenario.schedule(), config)
    assert first.fingerprint() == second.fingerprint()
    assert first.trace_digest == second.trace_digest

    # The hot-path caches must be behaviour-invisible, hop for hop: the
    # golden values come from a run with every one of them switched off.
    assert first.fingerprint() == GOLDEN["campaign"]["fingerprint"]
    assert first.trace_digest == GOLDEN["campaign"]["trace_digest"]


def test_different_seeds_diverge():
    scenario = get_scenario(SMOKE_SCENARIO)
    a = run_campaign(scenario.schedule(), scenario.config(seed=1, trace=True))
    b = run_campaign(scenario.schedule(), scenario.config(seed=2, trace=True))
    assert a.fingerprint() != b.fingerprint()
