"""Invariant monitors that run continuously during a chaos campaign.

Safety invariants (checked every poll tick):

``ordered-prefix``
    All honest replicas execute the same totally-ordered prefix: once any
    honest replica decides value ``v`` for consensus slot ``cid``, every
    honest replica's decision log must hold the identical bytes for that
    slot forever.
``reply-agreement``
    No two honest replicas send divergent replies for the same
    ``(client, sequence)``.
``hmi-truth``
    The operator's HMI only ever displays values the field actually
    produced (the workload ledger). A forged reading that survives the
    proxies' f+1 push vote — possible only when more than ``f`` replicas
    are compromised — trips this immediately.
``client-quorum``
    Every result a client accepts is quorum-backed by at least one
    currently-honest replica (hooked into the proxies' vote completion).

Liveness invariants (checked when the campaign quiesces):

``write-completion``
    Every submitted write completes — successfully or as the
    deterministic failure synthesized by the §IV-D logical-timeout
    protocol — within ``LIVENESS_BOUND`` seconds of the later of its
    submission and the last fault heal.
``leader-convergence``
    After the faults heal, at least ``n - f`` honest replicas agree on
    the maximum installed regency (the synchronization phase converged).
``state-convergence``
    Honest live replicas agree on ``last_decided`` / ``executed_cid`` and
    hold byte-identical Master state.

Recovery invariants (polled):

``durable-recovery``
    Every crash-restarted replica catches up, an intact disk without a
    snapshot transfer.
``redundancy-restored``
    After every crash-restart, rejuvenation or heal replacement the
    group is back to ``n`` members and the new incarnation decides and
    executes as far as its peers, on their regency, within one
    ``request_timeout``, while traffic still flows.

Monitors never mutate system state; a campaign stays bit-deterministic
with any subset of monitors installed.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.crypto import digest

if typing.TYPE_CHECKING:
    from repro.chaos.campaign import CampaignContext


@dataclass(frozen=True)
class Violation:
    """One invariant violation observed during a campaign."""

    time: float
    invariant: str
    detail: str
    #: Span id of the most recent trace span at violation time (``None``
    #: when tracing is off) — the anchor the ``chaos --json`` dump and
    #: trace forensics jump to. ``time`` is already simulated time.
    #: Outside the report fingerprint's hashed fields by construction
    #: (the fingerprint hashes time/invariant/detail only), so tracing
    #: on/off stays fingerprint-identical.
    span_id: str | None = None


class InvariantMonitor:
    """Base campaign participant, and the campaign's one control-plane seam.

    ``start`` runs before the deployment starts, ``poll`` every tick,
    ``finish`` at quiesce, ``report`` last; ``run_campaign`` walks its
    monitor list in order for each. Invariant monitors record
    violations; the IDS, heal, fleet and flight-recorder participants
    (:mod:`repro.chaos.campaign`) ride the same four hooks.
    """

    name = "invariant"

    def start(self, ctx: "CampaignContext") -> None:
        pass

    def poll(self, ctx: "CampaignContext") -> None:
        pass

    def finish(self, ctx: "CampaignContext") -> None:
        pass

    def report(self, ctx: "CampaignContext") -> dict:
        """Extra :class:`~repro.chaos.campaign.CampaignReport` fields."""
        return {}


class OrderedPrefixMonitor(InvariantMonitor):
    name = "ordered-prefix"

    def __init__(self) -> None:
        #: ``(shard, cid) -> digest``: each group has its own total order,
        #: so slot numbers only collide *within* a group.
        self._decided: dict[tuple, bytes] = {}

    def poll(self, ctx) -> None:
        for pm in ctx.honest_live_proxy_masters():
            shard = pm.shard
            for cid, value, _timestamp in pm.replica.decision_log:
                fingerprint = digest(value)
                key = (shard, cid)
                seen = self._decided.get(key)
                if seen is None:
                    self._decided[key] = fingerprint
                elif seen != fingerprint:
                    ctx.record_violation(
                        self.name,
                        f"replica {pm.replica.address} decided a different "
                        f"value for cid={cid} than an earlier honest replica "
                        f"of shard {shard}",
                    )


class ReplyAgreementMonitor(InvariantMonitor):
    name = "reply-agreement"

    def __init__(self) -> None:
        self._replies: dict[tuple, bytes] = {}

    def poll(self, ctx) -> None:
        for replica in ctx.honest_live_replicas():
            for client_id, (_cid, replies) in replica.last_reply.items():
                for reply in replies.values():
                    self._check(ctx, replica, client_id, reply)

    def _check(self, ctx, replica, client_id: str, reply) -> None:
        key = (client_id, reply.sequence)
        fingerprint = digest(reply.result)
        seen = self._replies.get(key)
        if seen is None:
            self._replies[key] = fingerprint
        elif seen != fingerprint:
            ctx.record_violation(
                self.name,
                f"replica {replica.address} replied divergently to "
                f"client {client_id} sequence {reply.sequence}",
            )


class HmiTruthMonitor(InvariantMonitor):
    name = "hmi-truth"

    def poll(self, ctx) -> None:
        hmi = ctx.system.hmi
        for item_id, legal in ctx.legal_values.items():
            shown = hmi.value_of(item_id)
            if shown is not None and shown not in legal:
                ctx.record_violation(
                    self.name,
                    f"HMI displays {shown!r} for {item_id!r}, which the "
                    f"field never produced (forged reading passed the "
                    f"f+1 push vote)",
                )


class ClientQuorumMonitor(InvariantMonitor):
    """Hooks every external client proxy's vote-completion callback."""

    name = "client-quorum"

    def start(self, ctx) -> None:
        for proxy in ctx.client_proxies():
            proxy.on_result = self._observer(ctx, proxy.client_id)

    def _observer(self, ctx, client_id: str):
        def on_result(sequence, _result, voters) -> None:
            honest = ctx.honest_addresses()
            if honest and not (set(voters) & honest):
                ctx.record_violation(
                    self.name,
                    f"client {client_id} accepted a result for sequence "
                    f"{sequence} voted only by compromised replicas "
                    f"({sorted(voters)})",
                )

        return on_result


#: Liveness bound: writes must complete within this many seconds of
#: max(submit, last heal).
LIVENESS_BOUND = 8.0


class WriteCompletionMonitor(InvariantMonitor):
    name = "write-completion"

    def finish(self, ctx) -> None:
        for record in ctx.writes:
            deadline = max(record.submitted, ctx.last_heal) + LIVENESS_BOUND
            if record.completed is None:
                ctx.record_violation(
                    self.name,
                    f"write #{record.number} ({record.item_id}={record.value!r}, "
                    f"submitted t={record.submitted:.2f}s) never completed "
                    f"(deadline t={deadline:.2f}s, now t={ctx.sim.now:.2f}s)",
                )
            elif record.completed > deadline:
                ctx.record_violation(
                    self.name,
                    f"write #{record.number} completed at t={record.completed:.2f}s, "
                    f"after its deadline t={deadline:.2f}s",
                )


class LeaderConvergenceMonitor(InvariantMonitor):
    name = "leader-convergence"

    def finish(self, ctx) -> None:
        by_shard: dict[int, list] = {}
        for pm in ctx.honest_live_proxy_masters():
            by_shard.setdefault(pm.shard, []).append(pm.replica)
        if not by_shard:
            ctx.record_violation(self.name, "no honest live replicas at quiesce")
            return
        needed = ctx.config.n - ctx.config.f
        for shard, replicas in sorted(by_shard.items()):
            regencies = [r.synchronizer.regency for r in replicas]
            top = max(regencies)
            agreed = sum(1 for regency in regencies if regency == top)
            if agreed < needed:
                ctx.record_violation(
                    self.name,
                    f"only {agreed} honest replicas of shard {shard} "
                    f"installed regency {top} (need {needed}); "
                    f"regencies={regencies}",
                )


class StateConvergenceMonitor(InvariantMonitor):
    name = "state-convergence"

    def finish(self, ctx) -> None:
        by_shard: dict[int, list] = {}
        for pm in ctx.honest_live_proxy_masters():
            by_shard.setdefault(pm.shard, []).append(pm)
        for shard, members in sorted(by_shard.items()):
            replicas = [pm.replica for pm in members]
            if len(replicas) < 2:
                continue
            decided = {r.last_decided for r in replicas}
            executed = {r.executed_cid for r in replicas}
            if len(decided) > 1 or len(executed) > 1:
                ctx.record_violation(
                    self.name,
                    f"honest replicas of shard {shard} did not converge: "
                    f"last_decided={sorted(decided)} "
                    f"executed_cid={sorted(executed)}",
                )
                continue
            digests = {digest(pm.service.snapshot()) for pm in members}
            if len(digests) > 1:
                ctx.record_violation(
                    self.name,
                    f"honest replicas of shard {shard} hold {len(digests)} "
                    f"distinct Master states after quiesce",
                )


class DurableRecoveryMonitor(InvariantMonitor):
    """Checks every :class:`~repro.chaos.schedule.CrashRestart` recovery.

    Polled: stamps ``settled_at`` on each restart event the first time
    the rebooted replica has caught up with its honest peers (the
    recovery-time measurement surfaced in ``CampaignReport.recoveries``).

    At quiesce:

    - every rebooted replica must have settled (no divergent stragglers);
    - an ``intact``-disk reboot whose disk yielded a usable prefix must
      have recovered *without* a full snapshot install — WAL replay plus
      log-tail (partial) transfer only. A full install there means the
      durable boot path silently degraded to state shipping, the
      regression this monitor exists to catch. (Under the
      ``checkpoint-only`` fsync policy an intact crash can honestly lose
      the entire un-barriered tail — an empty prefix makes the full
      transfer the correct answer, so the rule does not apply.)

    Damaged disks (``torn``/``corrupt``/``wiped``) are *expected* to fall
    back to the full transfer; for them only convergence is checked (the
    safety monitors separately guarantee the fallback stayed honest).
    """

    name = "durable-recovery"

    def poll(self, ctx) -> None:
        for event in ctx.restart_events:
            if event["settled_at"] is not None:
                continue
            pm = event["proxy_master"]
            replica = pm.replica
            if not replica.active:
                continue
            shard = pm.shard
            peers = [
                other.replica
                for other in ctx.honest_live_proxy_masters()
                if other.replica is not replica
                and other.shard == shard
            ]
            if not peers:
                continue
            if replica.last_decided >= max(p.last_decided for p in peers):
                event["settled_at"] = ctx.sim.now

    def finish(self, ctx) -> None:
        self.poll(ctx)  # catch settlements since the last tick
        for event in ctx.restart_events:
            replica = event["proxy_master"].replica
            label = (
                f"replica-{event['index']} ({event['disk']} disk, rebooted "
                f"t={event['restarted_at']:.2f}s)"
            )
            if event["settled_at"] is None and replica.active:
                ctx.record_violation(
                    self.name,
                    f"{label} never caught up with its peers after the "
                    f"restart (last_decided={replica.last_decided})",
                )
            recovered = replica.recovered_from_disk
            if (
                event["disk"] == "intact"
                and recovered is not None
                and not recovered.damaged
                and recovered.last_cid >= 0
                and replica.state_transfer.full_installs
            ):
                ctx.record_violation(
                    self.name,
                    f"{label} recovered through a full snapshot transfer; "
                    f"an intact disk must rejoin by WAL replay + log-tail "
                    f"transfer only",
                )


class RedundancyRestoredMonitor(InvariantMonitor):
    """Checks that every new incarnation restores the group's redundancy.

    A crash-restart, a rejuvenation (a Byzantine swap's honest return
    included) and a heal replacement each put a new replica object into
    the deployment; the first poll that sees one stamps its birth. Within
    one ``request_timeout`` of it — the patience the group itself grants
    a request — the group must be back to ``n`` active members and the
    incarnation must have rejoined: its ``last_decided`` and its
    ``executed_cid`` reached its honest live peers' on their regency —
    a replica that votes while its executor still replays a backlog
    cannot yet answer a request or push an update. A replica that only
    catches up once the plant goes quiet leaves the group deciding with
    no spare member for as long as traffic flows, so only births whose
    deadline falls inside the traffic horizon are judged. Compromised
    incarnations are the safety monitors' business.
    """

    name = "redundancy-restored"

    def __init__(self) -> None:
        self._known: set = set()
        #: ``[proxy master, birth time, deadline]`` of unsettled births.
        self._pending: list = []

    def start(self, ctx) -> None:
        self._known = {pm.replica for pm in ctx.system.proxy_masters}

    def poll(self, ctx) -> None:
        now = ctx.sim.now
        deadline = now + ctx.config.request_timeout
        for pm in ctx.system.proxy_masters:
            if pm.replica not in self._known:
                self._known.add(pm.replica)
                if deadline <= ctx.config.horizon:
                    self._pending.append([pm, now, deadline])
        unsettled = []
        for entry in self._pending:
            pm, born, deadline = entry
            replica = pm.replica
            if (
                not replica.active
                or pm.index in ctx.compromised
                or pm.index in ctx.crashed
                or self._rejoined(ctx, pm)
            ):
                continue
            if now >= deadline:
                self._report(ctx, pm, born, deadline)
                continue
            unsettled.append(entry)
        self._pending = unsettled

    def finish(self, ctx) -> None:
        self.poll(ctx)

    @staticmethod
    def _group(ctx, pm) -> tuple:
        """``(members, peers)``: the active members of ``pm``'s group and
        its honest live peers."""
        members = [
            other
            for other in ctx.system.proxy_masters
            if other.shard == pm.shard
            and other.replica.active
            and other.address not in ctx.system.retired
        ]
        peers = [
            other.replica
            for other in ctx.honest_live_proxy_masters()
            if other.shard == pm.shard and other is not pm
        ]
        return members, peers

    def _rejoined(self, ctx, pm) -> bool:
        members, peers = self._group(ctx, pm)
        replica = pm.replica
        return (
            len(members) >= ctx.config.n
            and bool(peers)
            and replica.last_decided >= max(p.last_decided for p in peers)
            and replica.executed_cid >= max(p.executed_cid for p in peers)
            and replica.regency >= max(p.regency for p in peers)
        )

    def _report(self, ctx, pm, born: float, deadline: float) -> None:
        members, peers = self._group(ctx, pm)
        replica = pm.replica
        ctx.record_violation(
            self.name,
            f"{pm.address} (new incarnation seen t={born:.2f}s) had not "
            f"rejoined its group by t={deadline:.2f}s while traffic flowed: "
            f"last_decided={replica.last_decided} vs peers' "
            f"{max((p.last_decided for p in peers), default=None)}, "
            f"executed_cid={replica.executed_cid} vs "
            f"{max((p.executed_cid for p in peers), default=None)}, "
            f"regency={replica.regency} vs "
            f"{max((p.regency for p in peers), default=None)}, "
            f"{len(members)}/{ctx.config.n} members",
        )


class MttrMonitor(InvariantMonitor):
    """Time-to-detect / time-to-heal per planted intrusion (diagnostics).

    Records no violations: it correlates each ground-truth episode with
    the first matching detection and the first completed orchestrator
    action on the same entity, yielding the mean-time-to-recovery
    measurements the ``heal`` benchmark reports. Not part of
    :func:`default_monitors` — heal drills install it explicitly.
    """

    name = "mttr"

    def __init__(self) -> None:
        #: One dict per episode: entity, kind, start, detected_at,
        #: detect_latency, healed_at, heal_latency, action (or Nones).
        self.measurements: list = []

    def finish(self, ctx) -> None:
        detections = (
            list(ctx.detector.detections) if ctx.detector is not None else []
        )
        actions = (
            list(ctx.orchestrator.actions)
            if ctx.orchestrator is not None
            else []
        )
        self.measurements = []
        for episode in ctx.ground_truth:
            entity = episode["entity"]
            start = episode["start"]
            detected_at = next(
                (
                    d.time
                    for d in detections
                    if d.entity == entity and d.time >= start
                ),
                None,
            )
            healed = next(
                (
                    a
                    for a in actions
                    if a.target == entity
                    and a.outcome in ("completed", "raised")
                    and a.time >= start
                ),
                None,
            )
            healed_at = (
                healed.completed_at
                if healed is not None and healed.completed_at is not None
                else (healed.time if healed is not None else None)
            )
            self.measurements.append(
                {
                    "entity": entity,
                    "kind": episode["kind"],
                    "behaviour": episode.get("behaviour", ""),
                    "start": start,
                    "detected_at": detected_at,
                    "detect_latency": (
                        detected_at - start if detected_at is not None else None
                    ),
                    "healed_at": healed_at,
                    "heal_latency": (
                        healed_at - start if healed_at is not None else None
                    ),
                    "action": healed.kind if healed is not None else None,
                }
            )


class AvailabilityMonitor(InvariantMonitor):
    """Samples write throughput over time (diagnostics).

    Keeps a ``(time, completed_successful_writes)`` series on the poll
    grid so the heal benchmark can compare operator-write throughput
    before the attack, during it, and after the orchestrator healed the
    group. Not part of :func:`default_monitors`.
    """

    name = "availability"

    def __init__(self) -> None:
        self.samples: list = []

    def poll(self, ctx) -> None:
        done = sum(1 for record in ctx.writes if record.success)
        self.samples.append((ctx.sim.now, done))

    def finish(self, ctx) -> None:
        self.poll(ctx)

    def _count_at(self, t: float) -> int:
        best = 0
        for sample_time, count in self.samples:
            if sample_time > t:
                break
            best = count
        return best

    def rate(self, t0: float, t1: float) -> float:
        """Successful writes per second completed in ``[t0, t1]``."""
        if t1 <= t0:
            return 0.0
        return (self._count_at(t1) - self._count_at(t0)) / (t1 - t0)


def default_monitors() -> list:
    """The full invariant suite, in evaluation order."""
    return [
        OrderedPrefixMonitor(),
        ReplyAgreementMonitor(),
        HmiTruthMonitor(),
        ClientQuorumMonitor(),
        WriteCompletionMonitor(),
        LeaderConvergenceMonitor(),
        StateConvergenceMonitor(),
        DurableRecoveryMonitor(),
        RedundancyRestoredMonitor(),
    ]
