"""The recovery orchestrator: detections in, safe recovery actions out.

:class:`RecoveryOrchestrator` closes the loop the IDS opened. It is
polled on the campaign's monitor grid (no events of its own while idle),
reads the detector's corroborated :class:`~repro.ids.detectors.Verdict`
stream plus a liveness probe over the replica group, consults the
response policy (:mod:`repro.heal.policy`) and the quorum guard, and
drives at most one recovery action at a time:

``restart``
    A replica whose process is dead while its machine answers the
    liveness probe is rebooted — from its durable disk when the
    deployment has one, as a pristine state-transferring instance
    otherwise. (A *crashed machine* fails the probe and is left alone:
    rebooting hardware is the infrastructure's job, not ours.)
``rejuvenate``
    Proactive recovery of the suspect in place (see
    :func:`repro.core.recovery.rejuvenate_replica`).
``evict``
    Join a fresh spare replica through a signed consensus
    reconfiguration, wait for its state transfer to complete, then leave
    the suspect — and force-halt it, since a Byzantine instance cannot
    be trusted to honour its own removal.
``alarm``
    Raise an operator alarm and stop acting on that entity.

Every decision is recorded as a :class:`HealAction` (including refused
ones, with ``outcome="blocked"``), so a campaign's action log is a
complete audit trail. The orchestrator adds no randomness: the same
seed and schedule produce the identical log.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bftsmart.cluster import build_proxy
from repro.bftsmart.reconfiguration import Administrator
from repro.core.recovery import SpareJoiner, rejuvenate_replica, restart_replica
from repro.heal.policy import HealConfig, quorum_blockers, transfer_blockers

_NEVER = -1.0e9

#: Consecutive detector polls a verdict must stay asserted before the
#: orchestrator acts — a single low-confidence detection never triggers
#: anything, so IDS false positives cannot be weaponized into
#: self-inflicted denial of service.
CORROBORATION_POLLS = 3
#: Minimum peak risk score a verdict must have reached while asserted.
MIN_SCORE = 1.0
#: Per-target hysteresis (simulated seconds): minimum gap between two
#: actions on the same entity (lets the previous action take effect
#: before escalating).
COOLDOWN = 1.5
#: Retry gap after the quorum guard blocks an action.
BLOCKED_RETRY = 0.5
#: Deadline for one reconfiguration attempt (Administrator checked path).
ACTION_TIMEOUT = 2.0
#: Reconfiguration attempts and backoff multiplier.
RECONFIG_ATTEMPTS = 3
RECONFIG_BACKOFF = 2.0
#: How long to wait for a joiner / restarted replica to catch up.
TRANSFER_DEADLINE = 4.0
#: Orchestrator action processes poll on this grid.
GRID = 0.1
#: Fresh replica addresses available for evict-and-replace.
MAX_SPARES = 2
#: A replica whose process is dead while its machine answers the
#: liveness probe is restarted after staying down this long.
RESTART_DOWN_AFTER = 1.0
#: Retransmission budget for the orchestrator's admin client.
ADMIN_MAX_ATTEMPTS = 200


@dataclass
class HealAction:
    """One orchestrator decision, attempted or refused."""

    time: float
    #: ``restart`` / ``rejuvenate`` / ``evict`` / ``alarm``.
    kind: str
    #: The entity acted on (replica address, client id, or ``ingress``).
    target: str
    #: ``uid`` of the triggering detection (``"probe"`` for restarts).
    trigger: str
    #: Detection kind (``"crash"`` for restarts).
    trigger_kind: str
    #: ``started`` -> ``completed`` / ``blocked`` / ``raised`` /
    #: ``join-rejected`` / ``join-timed-out`` / ``leave-rejected`` /
    #: ``leave-timed-out`` / ``transfer-timed-out`` / ``failed``.
    outcome: str = "started"
    detail: str = ""
    completed_at: float | None = None

    def as_dict(self) -> dict:
        return {
            "time": round(self.time, 6),
            "kind": self.kind,
            "target": self.target,
            "trigger": self.trigger,
            "trigger_kind": self.trigger_kind,
            "outcome": self.outcome,
            "detail": self.detail,
            "completed_at": (
                round(self.completed_at, 6)
                if self.completed_at is not None
                else None
            ),
        }


class RecoveryOrchestrator(SpareJoiner):
    """Drives automated recovery from IDS verdicts and liveness probes.

    Parameters
    ----------
    sim, net, system:
        The running deployment (a one-group
        :class:`repro.core.system.SmartScadaSystem`; the orchestrator
        watches shard 0).
    detector:
        The :class:`repro.ids.IntrusionDetector` whose ``verdicts()``
        feed the policy engine, or ``None`` for a probe-only
        orchestrator (restarts still work; nothing else triggers).
    config:
        A :class:`repro.heal.policy.HealConfig`: the escalation ladders
        and the blocked-alarm threshold. Timing and budgets are the
        module constants above.
    handler_config:
        ``fn(proxy_master)`` applying the caller's extra configuration to
        replicas the orchestrator boots (spares, restarts); the handler
        chains the deployment remembers are re-applied regardless.

    A successful eviction adds the suspect to ``system.retired`` — the
    one membership record fault reverts, the scoreboard and the
    rejuvenation scheduler all read.
    """

    def __init__(
        self,
        sim,
        net,
        system,
        detector=None,
        config: HealConfig | None = None,
        handler_config=None,
    ) -> None:
        self.config = config if config is not None else HealConfig()
        super().__init__(system, GRID, handler_config)
        self.detector = detector
        proxy = build_proxy(
            sim,
            net,
            "heal-admin",
            system.config.group_config(0),
            system.keystore,
            invoke_timeout=system.config.base.invoke_timeout,
        )
        proxy.max_attempts = ADMIN_MAX_ATTEMPTS
        self.admin = Administrator(proxy, system.keystore)
        #: Complete audit trail of decisions (:class:`HealAction`).
        self.actions: list = []
        self.evictions = 0
        self.rejuvenations = 0
        self.restarts = 0
        self.alarms = 0
        self.blocked = 0
        self.polls = 0
        #: One action in flight at a time: recovery actions perturb the
        #: very signals that trigger them, so they are strictly serial.
        self.busy = False
        #: entity -> {"rung", "cooldown_until", "blocked_streak", "done"}.
        self._targets: dict[str, dict] = {}
        #: Consecutive guard-refused attempts across *all* targets since
        #: the last completed action. When a systemic condition (total
        #: consensus stall) spreads verdicts over every replica, each
        #: per-entity streak stays at 1 — this counter still sees that
        #: automation is out of moves.
        self._blocked_run = 0
        self._group_alarmed = False
        #: replica address -> instant its process was first seen dead
        #: while the machine stayed reachable.
        self._down_since: dict[str, float] = {}
        self._spares_used = 0
        sim.register_stats_source("heal", self._stats)

    # -- reads -----------------------------------------------------------

    def _stats(self) -> dict:
        return {
            "polls": self.polls,
            "actions": len(self.actions),
            "evictions": self.evictions,
            "rejuvenations": self.rejuvenations,
            "restarts": self.restarts,
            "alarms": self.alarms,
            "blocked": self.blocked,
        }

    def action_log(self) -> list:
        """The decisions as plain dicts (report/CLI serialization)."""
        return [action.as_dict() for action in self.actions]

    # -- the poll --------------------------------------------------------

    def poll(self) -> None:
        """One decision step; called on the campaign's monitor grid."""
        self.polls += 1
        self._probe_crashed()
        if self.busy:
            return
        if self._maybe_restart():
            return
        if self.detector is None:
            return
        for verdict in self.detector.verdicts(min_streak=CORROBORATION_POLLS):
            if verdict.peak_score < MIN_SCORE:
                continue
            if self._consider(verdict):
                return

    def _consider(self, verdict) -> bool:
        """Try to act on one corroborated verdict; True when something ran."""
        now = self.sim.now
        ladder = self.config.rungs_for(verdict.kind)
        if not ladder:
            return False
        entity = verdict.entity
        if entity in self.system.retired:
            return False
        st = self._state(entity)
        if st["done"] or now < st["cooldown_until"]:
            return False
        rung = ladder[min(st["rung"], len(ladder) - 1)]
        target_pm = self._member(entity)
        if rung in ("rejuvenate", "evict") and target_pm is None:
            # The suspect is not a current group member (already removed,
            # or a client-side entity): nothing left to act on but alert.
            rung = "alarm"
        if rung == "alarm":
            self._raise_alarm(
                entity,
                verdict.detection.uid,
                verdict.kind,
                detail=verdict.detection.evidence,
            )
            st["done"] = True
            return True
        blockers = quorum_blockers(
            self.system, self.admin.proxy.view, taking_down=entity
        )
        if blockers:
            self._record_blocked(st, rung, verdict, blockers)
            return True
        action = HealAction(
            time=now,
            kind=rung,
            target=entity,
            trigger=verdict.detection.uid,
            trigger_kind=verdict.kind,
        )
        self.actions.append(action)
        flow = (
            self._evict_flow(action, target_pm)
            if rung == "evict"
            else self._rejuvenate_flow(action, target_pm)
        )
        self._launch(flow, action, st)
        return True

    def _record_blocked(self, st, rung, verdict, blockers) -> None:
        now = self.sim.now
        self.blocked += 1
        st["blocked_streak"] += 1
        st["cooldown_until"] = now + BLOCKED_RETRY
        self.actions.append(
            HealAction(
                time=now,
                kind=rung,
                target=verdict.entity,
                trigger=verdict.detection.uid,
                trigger_kind=verdict.kind,
                outcome="blocked",
                detail="; ".join(blockers),
            )
        )
        self._point("heal.blocked", verdict.entity, rung=rung)
        self._blocked_run += 1
        if st["blocked_streak"] >= self.config.blocked_alarm_after:
            # The condition persists but every safe action is refused:
            # automation is out of moves, tell the operators.
            self._raise_alarm(
                verdict.entity,
                verdict.detection.uid,
                verdict.kind,
                detail=f"quorum guard refused {st['blocked_streak']} "
                f"consecutive {rung} attempts: {'; '.join(blockers)}",
            )
            st["done"] = True
        elif (
            self._blocked_run >= self.config.blocked_alarm_after
            and not self._group_alarmed
        ):
            # A systemic condition (e.g. a total consensus stall) spreads
            # verdicts across targets, so no single entity's streak grows
            # — but the guard keeps refusing everything. Raise one
            # group-level alarm; it rearms after the next completed action.
            self._group_alarmed = True
            self._raise_alarm(
                "group",
                verdict.detection.uid,
                verdict.kind,
                detail=f"quorum guard refused {self._blocked_run} "
                f"consecutive recovery attempts across the group; "
                f"latest: {'; '.join(blockers)}",
            )

    def _raise_alarm(self, entity, trigger, trigger_kind, detail="") -> None:
        action = HealAction(
            time=self.sim.now,
            kind="alarm",
            target=entity,
            trigger=trigger,
            trigger_kind=trigger_kind,
            outcome="raised",
            detail=detail,
            completed_at=self.sim.now,
        )
        self.actions.append(action)
        self.alarms += 1
        self._point("heal.alarm", entity, trigger_kind=trigger_kind)

    # -- crash healing (liveness probe) ----------------------------------

    def _probe_crashed(self) -> None:
        now = self.sim.now
        for pm in self.system.group(0):
            if not pm.replica.active and not self.net.endpoint(pm.address).down:
                self._down_since.setdefault(pm.address, now)
            else:
                self._down_since.pop(pm.address, None)

    def _maybe_restart(self) -> bool:
        now = self.sim.now
        for address in sorted(self._down_since):
            if now - self._down_since[address] < RESTART_DOWN_AFTER:
                continue
            pm = self._member(address)
            if pm is None:
                continue
            blockers = transfer_blockers(self.system, self.admin.proxy.view)
            if blockers:
                # Restarting helps the quorum, so only transfer overlap
                # blocks it — and silently: the probe retries next poll.
                return False
            action = HealAction(
                time=now,
                kind="restart",
                target=address,
                trigger="probe",
                trigger_kind="crash",
            )
            self.actions.append(action)
            self._launch(self._restart_flow(action, pm), action, None)
            return True
        return False

    # -- action flows (simulation processes) -----------------------------

    def _launch(self, flow, action: HealAction, st: dict | None) -> None:
        sim = self.sim
        self.busy = True
        span = self._begin_span(f"heal.{action.kind}", action)

        def run():
            yield from flow
            if action.completed_at is None:
                action.completed_at = sim.now
            self._end_span(span, outcome=action.outcome)
            self.busy = False
            if action.outcome == "completed":
                self._blocked_run = 0
                self._group_alarmed = False
            if st is not None:
                st["cooldown_until"] = sim.now + COOLDOWN
                if action.outcome == "completed":
                    st["rung"] += 1
                    st["blocked_streak"] = 0

        sim.process(run(), name=f"heal-{action.kind}-{action.target}")

    def _rejuvenate_flow(self, action: HealAction, pm):
        replacement = rejuvenate_replica(
            self.system, pm.index, handler_config=self.handler_config
        )
        self.rejuvenations += 1
        caught_up = yield from self._wait_caught_up(
            replacement, TRANSFER_DEADLINE
        )
        if caught_up:
            action.outcome = "completed"
            action.detail = "suspect reimaged and caught up"
        else:
            action.outcome = "transfer-timed-out"
            action.detail = "reimaged replica did not catch up in time"

    def _restart_flow(self, action: HealAction, pm):
        if self.system.durable_storage is not None:
            replacement = restart_replica(
                self.system,
                pm.index,
                disk_fault=None,
                handler_config=self.handler_config,
            )
            action.detail = "rebooted from durable disk"
        else:
            replacement = rejuvenate_replica(
                self.system, pm.index, handler_config=self.handler_config
            )
            action.detail = "no durable disk; booted a pristine instance"
        self.restarts += 1
        caught_up = yield from self._wait_caught_up(
            replacement, TRANSFER_DEADLINE
        )
        action.outcome = "completed" if caught_up else "transfer-timed-out"

    def _evict_flow(self, action: HealAction, suspect_pm):
        suspect = suspect_pm.address
        if self._spares_used >= MAX_SPARES:
            action.outcome = "failed"
            action.detail = f"spare budget ({MAX_SPARES}) exhausted"
            return
        self._spares_used += 1
        reconfig = {
            "timeout": ACTION_TIMEOUT,
            "attempts": RECONFIG_ATTEMPTS,
            "backoff": RECONFIG_BACKOFF,
        }
        # Phases 1+2 — join a spare first, so the membership never
        # shrinks, and wait for it to state-transfer the full state.
        spare_pm, result, caught_up = yield from self._join_spare(
            self.admin, suspect_pm.shard, TRANSFER_DEADLINE, **reconfig
        )
        if not result.applied:
            action.outcome = f"join-{result.status}"
            action.detail = result.detail
            return
        if not caught_up:
            action.outcome = "transfer-timed-out"
            action.detail = (
                f"joined {spare_pm.address} but it did not catch up in time; "
                f"suspect left in place"
            )
            return
        # Phase 3 — re-check the guard (the world moved during the
        # transfer), then leave the suspect.
        blockers = quorum_blockers(
            self.system, self.admin.proxy.view, taking_down=suspect
        )
        if blockers:
            action.outcome = "blocked"
            action.detail = "; ".join(blockers)
            self.blocked += 1
            return
        leave = self.admin.reconfigure_checked(leave=(suspect,), **reconfig)

        def record_retirement(ev) -> None:
            # At the instant the decision arrives, not on this flow's next
            # poll tick: a scoreboard sample or a fault revert landing in
            # between must already find the suspect gone.
            if ev.value.applied:
                self.system.retired.add(suspect)

        leave.add_callback(record_retirement)
        result = yield from self._await(leave)
        if not result.applied:
            action.outcome = f"leave-{result.status}"
            action.detail = result.detail
            return
        self.system.update_views(result.view)
        # A Byzantine instance cannot be trusted to honour its removal —
        # honest replicas already ignore it, but halting it stops the
        # noise and releases its machine.
        suspect_pm.replica.halt()
        self.evictions += 1
        action.outcome = "completed"
        action.detail = (
            f"replaced by {spare_pm.address} "
            f"(view {result.view_id}, t={self.sim.now:.3f})"
        )

    # -- helpers ---------------------------------------------------------

    def _state(self, entity: str) -> dict:
        return self._targets.setdefault(
            entity,
            {
                "rung": 0,
                "cooldown_until": _NEVER,
                "blocked_streak": 0,
                "done": False,
            },
        )

    def _member(self, address: str):
        for pm in self.system.group(0):
            if pm.address == address:
                return pm
        return None

    def _begin_span(self, name: str, action: HealAction):
        tracer = self.sim.tracer
        if tracer is None:
            return None
        return tracer.begin(
            name,
            f"heal-{len(self.actions)}",
            process="heal",
            target=action.target,
            trigger=action.trigger,
            trigger_kind=action.trigger_kind,
        )

    def _end_span(self, span, **attrs) -> None:
        if span is not None:
            self.sim.tracer.end(span, **attrs)

    def _point(self, name: str, target: str, **attrs) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.point(
                name,
                f"heal-{len(self.actions)}",
                process="heal",
                target=target,
                **attrs,
            )
