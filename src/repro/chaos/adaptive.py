"""Adaptive adversaries: faults that fire on observed protocol state.

A fixed schedule says *when* a fault happens; an adaptive adversary says
*under which observed condition*. :class:`TriggeredAction` wraps any
ordinary :class:`~repro.chaos.schedule.Action` in a predicate drawn from
the :data:`PREDICATES` registry — "the consensus pipeline window has
filled", "a state transfer just started", "the IDS warm-up window has
elapsed" — and the campaign runner evaluates the armed triggers on the
same deterministic polling grid the invariant monitors use. Firing is
therefore a pure function of the (seeded) simulation state: the same
seed and schedule always fire the same faults at the same instants.

The **fault budget still applies**, twice over:

- statically, a triggered replica fault is charged for its worst case —
  from its arm time to the fault horizon — so two armed permanent
  Byzantine swaps are rejected by ``Schedule.validate_budget`` exactly
  like two overlapping fixed-time swaps;
- at runtime, a trigger whose inner action is a replica fault refuses to
  fire while ``f`` replicas are already faulty (unless the campaign
  opted into overload), so an adaptive schedule can never sneak past the
  ``n >= 3f+1`` assumption through lucky predicate timing.

Predicates observe the system read-only (pipeline occupancy counters,
state-transfer progress, the campaign clock); evaluating one never
schedules events or mutates protocol state.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

if typing.TYPE_CHECKING:
    from repro.chaos.campaign import CampaignContext

from repro.chaos.schedule import Action
from repro.ids import detectors


def _pipeline_occupancy(replica) -> int:
    return max(replica.next_propose_cid, replica.next_cid) - replica.next_cid


def _live_replicas(ctx: "CampaignContext"):
    return [pm.replica for pm in ctx.system.proxy_masters if pm.replica.active]


def _pred_always(ctx, param, state) -> bool:
    return True


def _pred_pipeline_full(ctx, param, state) -> bool:
    """The consensus pipeline window has filled on some replica.

    Checks both the instantaneous occupancy and the monotone
    ``pipeline_occupancy_peak`` counter, because a window that fills and
    drains between two polling ticks would otherwise be unobservable.
    ``param`` overrides the threshold (default: the configured depth).
    """
    for replica in _live_replicas(ctx):
        threshold = (
            int(param) if param is not None else replica.config.pipeline_depth
        )
        if _pipeline_occupancy(replica) >= threshold:
            return True
        if replica.stats["pipeline_occupancy_peak"] >= threshold:
            return True
    return False


def _pred_state_transfer(ctx, param, state) -> bool:
    """A state transfer has started since this trigger was armed.

    Fires on an in-progress transfer observed at a tick, or on the
    monotone install counters moving past their armed baseline (a
    transfer that completes between ticks still counts — the adversary
    watched it happen).
    """
    totals = {}
    for replica in _live_replicas(ctx):
        st = replica.state_transfer
        if st.in_progress:
            return True
        totals[replica.address] = st.full_installs + st.partial_installs
    baseline = state.get("st_baseline")
    if baseline is None:
        state["st_baseline"] = totals
        return False
    for address, total in totals.items():
        if total > baseline.get(address, 0):
            return True
    return False


def _pred_ids_warmup_done(ctx, param, state) -> bool:
    """The intrusion detector's warm-up window has elapsed.

    Reads :data:`repro.ids.detectors.WARMUP` whether or not the detector
    is actually enabled, so the predicate fires at the same instant
    either way; ``param`` overrides it.
    """
    if param is not None:
        return ctx.sim.now >= float(param)
    return ctx.sim.now >= detectors.WARMUP


#: Named trigger predicates: ``fn(ctx, param, state) -> bool``. ``state``
#: is a per-(trigger, run) scratch dict for armed baselines.
PREDICATES: dict[str, object] = {
    "always": _pred_always,
    "pipeline-full": _pred_pipeline_full,
    "state-transfer-active": _pred_state_transfer,
    "ids-warmup-done": _pred_ids_warmup_done,
}


@dataclass
class TriggeredAction(Action):
    """Fire ``action`` when predicate ``when`` holds, not at a wall time.

    ``at``/``duration`` describe the *armed* window: the trigger starts
    watching at ``at`` and disarms at ``at + duration`` (or the fault
    horizon). Each firing applies the inner action immediately and
    schedules its revert after the inner action's own ``duration``.
    ``max_fires`` bounds repeated firings. Runtime firing state lives in
    non-field attributes, so ``repr`` stays a valid constructor call for
    the shrinker's replay snippets.
    """

    when: str = "always"
    param: object = None
    action: Action = field(default_factory=Action)
    max_fires: int = 1

    @property
    def replica_fault(self):  # type: ignore[override]
        return self.action.replica_fault

    def end(self, horizon: float) -> float:
        armed_end = horizon if self.duration is None else min(
            self.at + self.duration, horizon
        )
        if self.action.duration is None:
            return horizon
        return min(armed_end + self.action.duration, horizon)

    def fault_interval(self, horizon: float):
        # Worst case: the trigger fires the instant it arms and the inner
        # fault runs to the horizon — charged statically so an adaptive
        # schedule cannot out-budget its fixed-time equivalent.
        if not self.action.replica_fault:
            return None
        return (self.at, horizon, 1)

    # -- runtime (driven by the campaign's trigger evaluator) -----------

    def reset_runtime(self) -> None:
        self.fired_times: list = []
        self.exhausted = False
        self.pred_state: dict = {}

    def armed(self, now: float, horizon: float) -> bool:
        if getattr(self, "exhausted", False) or now < self.at:
            return False
        armed_end = horizon if self.duration is None else self.at + self.duration
        return now <= armed_end

    def should_fire(self, ctx: "CampaignContext") -> bool:
        predicate = PREDICATES.get(self.when)
        if predicate is None:
            raise ValueError(
                f"unknown trigger predicate {self.when!r}; pick from "
                f"{sorted(PREDICATES)}"
            )
        if not hasattr(self, "pred_state"):
            self.reset_runtime()
        return bool(predicate(ctx, self.param, self.pred_state))

    def fire(self, ctx: "CampaignContext") -> float:
        """Apply the inner action now; returns the absolute revert time."""
        now = ctx.sim.now
        self.fired_times.append(now)
        if len(self.fired_times) >= self.max_fires:
            self.exhausted = True
        self.action.apply(ctx)
        horizon = ctx.config.horizon
        if self.action.duration is None:
            return horizon
        return min(now + self.action.duration, horizon)

    def _apply(self, ctx) -> None:  # pragma: no cover - evaluator drives
        raise RuntimeError(
            "TriggeredAction is driven by the campaign trigger evaluator, "
            "not by fixed-time apply()"
        )


def active_replica_faults(ctx: "CampaignContext") -> int:
    """How many replicas are currently faulted (crashed or compromised)."""
    return len(ctx.crashed | ctx.compromised)
