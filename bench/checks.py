"""Output checks: a run whose outputs are wrong has no numbers worth reading.

Every check returns ``(name, ok, detail)``. ``run.py`` prints the name of
each failed check and exits non-zero, so a change that breaks delivery,
ordering, replica agreement or determinism cannot post a better time.
"""

from __future__ import annotations

import math

from metrics import sim_metrics

#: Generator lateness above this (seconds of simulated time) is a bug in
#: the bench: an open loop in simulated time is never late, only rounded.
GEN_LATE_TOLERANCE_S = 1e-9


def check_pass(name: str, spec: dict, steps: dict) -> list:
    """Checks on the outputs of one pass of one workload."""
    results = []
    fault = "kill_leader_at_s" in spec
    for step_name, step in steps.items():
        where = f"{name}/{step_name}"
        results.append(
            (
                f"{where}: every op completed exactly once, in per-item order",
                not any(step.failures.values()),
                f"{step.failures} of {step.attempted} attempted",
            )
        )
        results.append(
            (
                f"{where}: live replicas of each group share one state digest",
                all(len(group) == 1 for group in step.state_digests),
                f"distinct digests per group: {[len(g) for g in step.state_digests]}",
            )
        )
        results.append(
            (
                f"{where}: open-loop generator ran on schedule",
                step.gen_late_s <= GEN_LATE_TOLERANCE_S,
                f"latest injection {step.gen_late_s * 1e3:.3g} ms after it was due",
            )
        )
        changes = step.counters["bft.leader_changes"]
        results.append(
            (
                # The prediction is exactly one; a second change while the
                # restarted replica rejoins has been seen (seed 7) and is
                # reported as bftsmart.leader_changes, not failed here.
                f"{where}: leader changed" if fault else f"{where}: no leader change",
                changes >= 1 if fault else changes == 0,
                f"saw {changes}",
            )
        )
        if not fault:
            results.append(
                (
                    f"{where}: no logical timeout fired",
                    step.counters["core.logical_timeouts"] == 0,
                    f"saw {step.counters['core.logical_timeouts']}",
                )
            )
        if fault:
            results.append(
                (
                    f"{where}: restarted replica caught up with its peers",
                    math.isfinite(step.extra.get("rejoin_s", math.inf)),
                    f"rejoin_s={step.extra.get('rejoin_s')}",
                )
            )
        if "ae_inversions" in step.extra:
            results.append(
                (
                    f"{where}: global AE order sorted but for declared stragglers",
                    step.extra["ae_inversions"] == step.extra["ae_late"],
                    f"{step.extra['ae_inversions']} inversions, "
                    f"{step.extra['ae_late']} declared late, "
                    f"{step.extra['ae_released']} released",
                )
            )
    return results


def _simulated_view(steps: dict) -> dict:
    """Everything about a pass that must not depend on the host."""
    view = dict(sim_metrics(steps))
    for step_name, step in steps.items():
        view[f"{step_name}.outputs"] = step.outputs_digest
        view[f"{step_name}.state"] = step.state_digests
        view[f"{step_name}.ae"] = step.extra.get("ae_digest")
        view[f"{step_name}.counters"] = step.counters
    return view


def check_identical(name: str, label: str, passes: list) -> list:
    """Simulated outputs, ``sim_*`` values and counters equal in every pass."""
    first = _simulated_view(passes[0])
    differing = sorted(
        {
            key
            for steps in passes[1:]
            for key, value in _simulated_view(steps).items()
            if value != first[key]
        }
    )
    return [
        (
            f"{name}: {label}",
            not differing,
            f"{len(passes)} passes; differing: {differing or 'nothing'}",
        )
    ]


def check_trace(name: str, layer_tracer) -> list:
    """The wrapper pass attributed all of its time, once."""
    total = sum(layer_tracer.cpu_shares().values())
    return [
        (
            f"{name}: layer cpu shares sum to 1",
            abs(total - 1.0) < 1e-9,
            f"sum={total!r}",
        )
    ]


def failed(results: list) -> list:
    return [f"{name} [{detail}]" for name, ok, detail in results if not ok]
