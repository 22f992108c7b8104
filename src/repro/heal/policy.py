"""Response policy for the closed-loop self-healing layer.

The policy engine decides *what* the orchestrator may do about a
corroborated IDS verdict, and the quorum guard decides *whether it is
safe to do it now*. Both are deliberately small and pure — every
decision is a function of the verdict stream and the group's observable
state, so the same seed always produces the identical action log.

Escalation ladders
------------------

Each detection kind maps to a ladder of rungs tried in order, one rung
per corroborated recurrence of the symptom (with a per-target cooldown
between actions):

``rejuvenate``
    Wipe the suspect to a pristine image in place (proactive recovery).
    Proportionate for symptoms a wedged-but-honest process could also
    produce (protocol silence, reply starvation); genuinely cures them.
``evict``
    Join a spare replica, wait for its state transfer to complete, then
    leave the suspect through a signed consensus reconfiguration — the
    definitive response to a compromised machine.
``alarm``
    Raise an operator alarm and stop acting. Terminal rung for symptoms
    automation cannot fix (client-side command injection, ingress
    spoofing) and the final escalation when safe actions ran out.

The default profile enters at ``rejuvenate`` for the crash-ambiguous
behaviours and at ``evict`` for actively-lying ones (divergent replies,
forged pushes, equivocation are cryptographically corroborated malice —
there is no trust to rebuild by reimaging). :meth:`HealConfig.zero_trust`
is the hardened operational profile used by the recovery-under-attack
drills: every confirmed Byzantine behaviour goes straight to eviction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The five replica behaviours the IDS attributes to a specific machine.
BYZANTINE_KINDS = (
    "byzantine-silent",
    "byzantine-stuttering",
    "byzantine-lying",
    "byzantine-falsifying",
    "byzantine-equivocating",
)

#: Default kind -> escalation ladder table (see module docstring).
DEFAULT_POLICY = (
    ("byzantine-silent", ("rejuvenate", "evict", "alarm")),
    ("byzantine-stuttering", ("rejuvenate", "evict", "alarm")),
    ("byzantine-lying", ("evict", "alarm")),
    ("byzantine-falsifying", ("evict", "alarm")),
    ("byzantine-equivocating", ("evict", "alarm")),
    ("write-burst", ("alarm",)),
    ("spoofed-frontend", ("alarm",)),
)

#: The hardened table: confirmed Byzantine replicas are evicted directly.
ZERO_TRUST_POLICY = tuple(
    (kind, ("evict", "alarm") if kind in BYZANTINE_KINDS else ladder)
    for kind, ladder in DEFAULT_POLICY
)


@dataclass(frozen=True)
class HealConfig:
    """The orchestrator settings campaigns vary.

    Timing and budgets are constants of :mod:`repro.heal.orchestrator`.
    """

    #: Guard-blocked attempts on one target before escalating to an alarm.
    blocked_alarm_after: int = 5
    #: kind -> escalation ladder, as a tuple of pairs (constructor-valid
    #: repr: campaign replay snippets embed this config).
    policy: tuple = field(default=DEFAULT_POLICY)

    def rungs_for(self, kind: str) -> tuple:
        for entry_kind, ladder in self.policy:
            if entry_kind == kind:
                return ladder
        return ()

    @classmethod
    def zero_trust(cls) -> "HealConfig":
        """The hardened profile: confirmed Byzantine replicas are evicted."""
        return cls(policy=ZERO_TRUST_POLICY)


def transfer_blockers(system, view, taking_down: str | None = None) -> list:
    """In-flight state transfers that forbid starting any action now.

    Two concurrent catch-ups can starve each other's senders, and a
    replica mid-transfer counts as neither up nor down — every
    orchestrator action (including a plain restart) waits for the group
    to be transfer-idle first. A transfer on ``taking_down`` itself is
    exempt: wiping or evicting that replica *resolves* its transfer (a
    Byzantine instance may well sit in a transfer it never finishes —
    that must not grant it immunity).
    """
    return [
        f"state transfer in flight on {pm.address}"
        for pm in system.proxy_masters
        if pm.address in view.addresses
        and pm.address != taking_down
        and pm.replica.active
        and pm.replica.state_transfer.in_progress
    ]


def quorum_blockers(system, view, taking_down: str | None = None) -> list:
    """Why acting now is unsafe; an empty list means the action may proceed.

    The hard guard the orchestrator consults before any action that
    takes a replica out — rejuvenation wipes it in place, eviction
    removes it from the membership:

    - no action may overlap an in-flight state transfer anywhere in the
      group (:func:`transfer_blockers`);
    - removing ``taking_down`` must leave at least ``2f+1`` live
      replicas, the quorum every consensus and reconfiguration decision
      needs.
    """
    reasons = transfer_blockers(system, view, taking_down=taking_down)
    live = [
        pm.address
        for pm in system.proxy_masters
        if pm.address in view.addresses
        and pm.replica.active
        and not system.net.endpoint(pm.address).down
    ]
    need = view.strong_quorum
    remaining = [a for a in live if a != taking_down]
    if len(remaining) < need:
        reasons.append(
            f"only {len(remaining)} live replicas would remain "
            f"(quorum needs {need} = 2f+1)"
        )
    return reasons
