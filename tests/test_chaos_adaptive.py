"""Adaptive adversaries: triggers, the fault budget, and shrinking.

Three properties matter. Triggers must fire deterministically on
observed state (same seed, same firing instant). The fault budget must
hold against adaptivity — an armed trigger is charged its worst case
statically, and the runtime guard refuses to stack a triggered replica
fault on top of ``f`` existing ones. And a failing adaptive schedule
must shrink to a plain fixed-time schedule whenever the adaptivity was
incidental to the violation.
"""

import pytest

from repro.chaos import (
    ChaosBudgetError,
    PREDICATES,
    Schedule,
    SwapByzantine,
    TriggeredAction,
    run_campaign,
)
from repro.chaos.campaign import CampaignConfig
from repro.chaos.scenarios import get_scenario, run_scenario
from repro.chaos.shrink import shrink_schedule


def test_predicate_registry_is_complete():
    assert set(PREDICATES) >= {
        "always", "pipeline-full", "state-transfer-active",
        "ids-warmup-done",
    }


def test_unknown_predicate_is_rejected():
    trigger = TriggeredAction(at=0.5, when="no-such-predicate")
    trigger.reset_runtime()
    with pytest.raises(ValueError, match="no-such-predicate"):
        trigger.should_fire(object())


def test_trigger_charged_statically_to_horizon():
    """An armed replica-fault trigger occupies budget from arm time to
    the horizon — the worst case — regardless of its predicate."""
    trigger = TriggeredAction(
        at=2.0, when="pipeline-full",
        action=SwapByzantine(index=1, behaviour="lying", duration=1.0),
    )
    assert trigger.replica_fault
    assert trigger.fault_interval(horizon=10.0) == (2.0, 10.0, 1)
    # Two such triggers overlap no matter when they would fire.
    schedule = Schedule([
        trigger,
        TriggeredAction(
            at=3.0, when="always",
            action=SwapByzantine(index=2, behaviour="silent", duration=1.0),
        ),
    ])
    with pytest.raises(ChaosBudgetError):
        schedule.validate_budget(f=1, horizon=10.0)


def test_overbudget_scenario_rejected_without_overload():
    scenario = get_scenario("adaptive-overbudget-swap")
    with pytest.raises(ChaosBudgetError):
        scenario.schedule().validate_budget(f=1, horizon=8.0)


def test_overbudget_scenario_caught_by_monitors_when_forced():
    """Forced past the static check, the doubled compromise must be the
    monitors' problem — and they do catch it."""
    report = run_scenario("adaptive-overbudget-swap", seed=0)
    assert not report.ok
    assert len(report.trigger_fires) == 2
    invariants = {v.invariant for v in report.violations}
    assert invariants  # safety/liveness monitors fired


def test_warmup_trigger_fires_after_warmup():
    report = run_scenario("adaptive-warmup-swap", seed=0)
    assert report.ok, report.violations
    assert len(report.trigger_fires) == 1
    fire = report.trigger_fires[0]
    assert fire["when"] == "ids-warmup-done"
    assert fire["time"] >= 1.0  # never inside the warm-up window


def test_state_transfer_trigger_waits_for_transfer():
    report = run_scenario("adaptive-transfer-leader-kill", seed=0)
    fires = [f for f in report.trigger_fires
             if f["when"] == "state-transfer-active"]
    assert len(fires) == 1
    # The isolation heals at t=1.8; the rejoin transfer is what arms it.
    assert fires[0]["time"] >= 1.8


def test_window_partition_trigger_fires():
    report = run_scenario("adaptive-window-partition", seed=0)
    assert [f["when"] for f in report.trigger_fires] == ["pipeline-full"]


def test_trigger_firing_is_deterministic():
    a = run_scenario("adaptive-warmup-swap", seed=5)
    b = run_scenario("adaptive-warmup-swap", seed=5)
    assert a.trigger_fires == b.trigger_fires
    assert a.fingerprint() == b.fingerprint()


def test_runtime_guard_blocks_stacked_replica_fault():
    """A trigger that becomes ready while f replicas are already faulty
    must hold its fire instead of blowing the budget at runtime. A
    repeating trigger is charged once statically, so only the runtime
    guard separates its own firings."""
    schedule = Schedule([
        TriggeredAction(
            at=1.0, when="always", max_fires=2,
            action=SwapByzantine(index=2, behaviour="lying", duration=1.0),
        ),
    ])
    schedule.validate_budget(f=1, horizon=8.0)  # passes statically
    report = run_campaign(schedule, CampaignConfig(seed=3))
    fires = report.trigger_fires
    assert len(fires) == 2
    # The second firing waits out the first compromise's revert instead
    # of stacking a second simultaneous replica fault.
    assert fires[1]["time"] >= fires[0]["revert_at"]


def test_shrinker_deadapts_failing_triggers():
    """The over-budget adaptive failure shrinks to plain fixed-time
    swaps pinned at the observed firing instants."""
    scenario = get_scenario("adaptive-overbudget-swap")
    config = scenario.config(None, seed=0)
    result = shrink_schedule(scenario.schedule(), config)
    assert not result.report.ok
    assert all(not isinstance(a, TriggeredAction)
               for a in result.schedule)
    assert all(isinstance(a, SwapByzantine) for a in result.schedule)
    assert "TriggeredAction" not in result.snippet
    assert "run_campaign" in result.snippet
