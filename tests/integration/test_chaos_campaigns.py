"""Integration: the full chaos scenario library, seed sweeps, the
over-budget attack drill and schedule shrinking."""

import pytest

from repro.chaos import (
    ChaosBudgetError,
    get_scenario,
    list_scenarios,
    replay_snippet,
    run_campaign,
    sample_schedule,
    shrink_schedule,
    sweep_seeds,
)
from repro.chaos.campaign import CampaignConfig

LIBRARY = [s for s in list_scenarios() if not s.expect_violation]


#: The sweeps cover ten seeds. Tier-1 runs the first three of them; the
#: ``nightly``-marked twins (deselected by ``addopts``, run by the
#: scheduled CI job with ``-m nightly``) run all ten.
SWEEP_SEEDS = range(10)
TIER1_SEEDS = SWEEP_SEEDS[:3]


def _assert_survives(schedule, seeds, config) -> None:
    reports = sweep_seeds(schedule, seeds, config)
    failing = {
        seed: [(v.invariant, v.detail) for v in report.violations]
        for seed, report in reports.items()
        if not report.ok
    }
    assert not failing, failing


@pytest.mark.parametrize("scenario", LIBRARY, ids=lambda s: s.name)
def test_library_scenario_survives_ten_seeds(scenario):
    """Tier-1 share of the ten-seed sweep (``TIER1_SEEDS``)."""
    _assert_survives(scenario.schedule(), TIER1_SEEDS, scenario.config())


@pytest.mark.nightly
@pytest.mark.parametrize("scenario", LIBRARY, ids=lambda s: s.name)
def test_library_scenario_survives_all_ten_seeds(scenario):
    _assert_survives(scenario.schedule(), SWEEP_SEEDS, scenario.config())


def test_randomized_campaigns_survive_sampled_schedules():
    _assert_survives(sample_schedule, TIER1_SEEDS, CampaignConfig())


@pytest.mark.nightly
def test_randomized_campaigns_survive_all_ten_sampled_schedules():
    _assert_survives(sample_schedule, SWEEP_SEEDS, CampaignConfig())


def test_overbudget_campaign_requires_opt_in():
    scenario = get_scenario("overbudget-falsify")
    with pytest.raises(ChaosBudgetError):
        run_campaign(scenario.schedule(), CampaignConfig())  # no overload


def test_overbudget_falsify_detected_as_safety_violation():
    """Two colluding falsifying replicas (f=1) must trip the safety
    monitors: the HMI displays a forged reading that passed the f+1
    push vote."""
    scenario = get_scenario("overbudget-falsify")
    report = run_campaign(scenario.schedule(), scenario.config(seed=0))
    assert not report.ok
    assert "hmi-truth" in report.violated_invariants()


def test_shrinker_minimizes_overbudget_schedule():
    scenario = get_scenario("overbudget-falsify")
    config = scenario.config(seed=0)
    assert len(scenario.schedule()) == 5
    result = shrink_schedule(scenario.schedule(), config)
    # The noise actions are stripped; only the colluding swaps remain.
    assert len(result.schedule) <= 3
    assert result.removed_actions >= 2
    assert not result.report.ok
    assert all(
        type(action).__name__ == "SwapByzantine" for action in result.schedule
    )


def test_shrinker_refuses_passing_schedule():
    scenario = get_scenario("leader-crash")
    with pytest.raises(ValueError, match="does not violate"):
        shrink_schedule(scenario.schedule(), scenario.config(seed=0))


def test_replay_snippet_reproduces_the_violation():
    scenario = get_scenario("overbudget-falsify")
    config = scenario.config(seed=0)
    result = shrink_schedule(scenario.schedule(), config)
    namespace = {}
    exec(compile(result.snippet, "<replay>", "exec"), namespace)  # noqa: S102
    replayed = namespace["report"]
    assert not replayed.ok
    assert replayed.violated_invariants() == result.report.violated_invariants()
    assert replayed.fingerprint() == result.report.fingerprint()


def test_replay_snippet_is_valid_python_for_any_scenario():
    for scenario in list_scenarios():
        snippet = replay_snippet(scenario.schedule(), scenario.config())
        compile(snippet, f"<{scenario.name}>", "exec")
