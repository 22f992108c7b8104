"""Shrinking: minimize a failing schedule to its essence.

When a campaign fails an invariant, the schedule that provoked it is
rarely minimal — randomized campaigns especially carry bystander
actions. The shrinker re-runs the campaign (same seed, so every attempt
is deterministic) with candidate reductions:

1. **action removal** — greedily drop one action at a time, keeping the
   removal whenever the reduced schedule still violates, repeated to a
   fixed point (like delta-debugging's 1-minimal pass);
2. **duration shortening** — halve each surviving action's fault window
   while the violation persists;
3. **de-adapting triggers** — each surviving
   :class:`~repro.chaos.adaptive.TriggeredAction` is replaced, when the
   violation allows it, by its inner action pinned at the time the
   trigger actually fired (recorded by the failing run), falling back to
   simplifying its predicate to ``always`` and halving the inner fault
   window. A minimal adaptive failure thus shrinks to a plain fixed-time
   schedule whenever the adaptivity wasn't essential.

The result carries the minimal schedule, the report proving it still
violates, and a replayable Python snippet (built from the actions'
constructor-valid reprs) that reproduces the failure standalone.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import replace as dc_replace

from repro.chaos.adaptive import TriggeredAction
from repro.chaos.campaign import CampaignConfig, CampaignReport, run_campaign
from repro.chaos.schedule import Schedule

#: Don't shorten fault windows below this (too short to matter).
MIN_DURATION = 0.5


@dataclass
class ShrinkResult:
    """Outcome of shrinking one failing schedule."""

    schedule: Schedule
    report: CampaignReport
    runs: int
    removed_actions: int
    snippet: str


def replay_snippet(schedule: Schedule, config: CampaignConfig) -> str:
    """A standalone Python snippet reproducing this campaign."""
    lines = [
        "from repro.chaos import *",
        "from repro.chaos.campaign import CampaignConfig",
        "from repro.heal import HealConfig",
        "from repro.ids import IdsConfig",
        "",
        "schedule = Schedule([",
    ]
    for action in schedule:
        lines.append(f"    {action!r},")
    lines.append("])")
    lines.append(f"config = {config!r}")
    lines.append("report = run_campaign(schedule, config)")
    lines.append("print(report.summary())")
    lines.append("for violation in report.violations:")
    lines.append("    print(f'  t={violation.time:.2f}s "
                 "{violation.invariant}: {violation.detail}')")
    return "\n".join(lines) + "\n"


def _heal_signature(report: CampaignReport) -> tuple:
    """The orchestrator's story, shrink-stable: (kind, target, outcome)s."""
    return tuple(
        (action["kind"], action["target"], action["outcome"])
        for action in report.heal_actions
    )


def _fails(
    schedule: Schedule,
    config: CampaignConfig,
    counter: list,
    heal_signature: tuple | None = None,
) -> "CampaignReport | None":
    """Run the campaign; return the report iff it still violates.

    With ``heal_signature`` set (a heal campaign), a candidate
    only counts when the recovery orchestrator also took the *same*
    actions with the same outcomes — a reduction that makes the failure
    survive by silencing or rerouting the self-healing response is a
    different bug, not a smaller reproduction of this one.
    """
    counter[0] += 1
    report = run_campaign(schedule, config)
    if report.ok:
        return None
    if heal_signature is not None and _heal_signature(report) != heal_signature:
        return None
    return report


def shrink_schedule(
    schedule: Schedule,
    config: CampaignConfig | None = None,
    max_runs: int = 60,
) -> ShrinkResult:
    """Minimize ``schedule`` while it keeps violating an invariant.

    When ``config.heal`` is on, however the campaign got it, every
    reduction must also preserve the failing run's recovery-orchestrator
    action log (kinds, targets and outcomes) — see :func:`_fails`.

    Raises ``ValueError`` if the input schedule doesn't fail in the
    first place (nothing to shrink).
    """
    config = config if config is not None else CampaignConfig()
    counter = [0]
    baseline = _fails(schedule, config, counter)
    if baseline is None:
        raise ValueError(
            "schedule does not violate any invariant under this config; "
            "nothing to shrink"
        )
    sig = _heal_signature(baseline) if config.heal else None

    current = list(schedule.actions)
    best_report = baseline
    original_count = len(current)

    # Pass 1: greedy single-action removal to a fixed point.
    changed = True
    while changed and counter[0] < max_runs:
        changed = False
        for i in range(len(current)):
            if counter[0] >= max_runs or len(current) <= 1:
                break
            candidate = current[:i] + current[i + 1:]
            report = _fails(Schedule(list(candidate)), config, counter, sig)
            if report is not None:
                current = candidate
                best_report = report
                changed = True
                break  # restart the scan over the smaller schedule

    # Pass 2: halve durations while the violation persists.
    for i, action in enumerate(list(current)):
        while (
            counter[0] < max_runs
            and action.duration is not None
            and action.duration / 2 >= MIN_DURATION
        ):
            shorter = dc_replace(action, duration=round(action.duration / 2, 3))
            candidate = list(current)
            candidate[i] = shorter
            report = _fails(Schedule(candidate), config, counter, sig)
            if report is None:
                break
            action = shorter
            current = candidate
            best_report = report

    # Pass 3: de-adapt surviving triggers. A trigger that fired at time t
    # in the failing run is first tried as its inner action pinned at t
    # (adaptivity gone entirely); failing that, its predicate is
    # simplified to "always" and the inner fault window halved.
    for i, action in enumerate(list(current)):
        if not isinstance(action, TriggeredAction) or counter[0] >= max_runs:
            continue
        fired = list(getattr(action, "fired_times", ()))
        if fired:
            pinned = dc_replace(action.action, at=round(fired[0], 3))
            candidate = list(current)
            candidate[i] = pinned
            report = _fails(Schedule(candidate), config, counter, sig)
            if report is not None:
                current = candidate
                best_report = report
                continue
        if action.when != "always" and counter[0] < max_runs:
            simpler = dc_replace(action, when="always", param=None)
            candidate = list(current)
            candidate[i] = simpler
            report = _fails(Schedule(candidate), config, counter, sig)
            if report is not None:
                action = simpler
                current = candidate
                best_report = report
        inner = current[i].action if isinstance(current[i], TriggeredAction) else None
        while (
            inner is not None
            and counter[0] < max_runs
            and inner.duration is not None
            and inner.duration / 2 >= MIN_DURATION
        ):
            shorter = dc_replace(
                current[i], action=dc_replace(inner, duration=round(inner.duration / 2, 3))
            )
            candidate = list(current)
            candidate[i] = shorter
            report = _fails(Schedule(candidate), config, counter, sig)
            if report is None:
                break
            current = candidate
            best_report = report
            inner = shorter.action

    minimal = Schedule(list(current))
    return ShrinkResult(
        schedule=minimal,
        report=best_report,
        runs=counter[0],
        removed_actions=original_count - len(minimal),
        snippet=replay_snippet(minimal, config),
    )
