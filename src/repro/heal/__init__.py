"""Closed-loop self-healing: IDS detections drive safe recovery actions.

``repro.heal`` sits between the passive intrusion detector
(:mod:`repro.ids`) and the active recovery machinery
(:mod:`repro.core.recovery`, :mod:`repro.bftsmart.reconfiguration`):

- :mod:`repro.heal.policy` — the response policy: per-detection-kind
  escalation ladders (rejuvenate -> evict -> alarm) and the hard quorum
  guard that refuses any action that would drop the live replica count
  below ``2f+1`` or overlap an in-flight state transfer;
- :mod:`repro.heal.orchestrator` — the
  :class:`~repro.heal.orchestrator.RecoveryOrchestrator` (whose module
  constants fix the corroboration threshold, cooldowns and deadlines)
  that polls the detector's corroborated verdicts plus a liveness probe
  and executes one action at a time: restart crashed-but-reachable replicas from
  disk, rejuvenate suspects in place, evict-and-replace confirmed
  Byzantine replicas via consensus reconfiguration, or raise an
  operator alarm when automation is out of safe moves.

The loop realizes the intrusion-tolerance operations story the paper's
architecture implies: detection without response leaves ``f`` eroding
over time; response without corroboration and a quorum guard lets the
detector be weaponized into self-inflicted denial of service.
"""

from repro.heal.orchestrator import HealAction, RecoveryOrchestrator
from repro.heal.policy import (
    BYZANTINE_KINDS,
    DEFAULT_POLICY,
    ZERO_TRUST_POLICY,
    HealConfig,
    quorum_blockers,
    transfer_blockers,
)

__all__ = [
    "BYZANTINE_KINDS",
    "DEFAULT_POLICY",
    "HealAction",
    "HealConfig",
    "RecoveryOrchestrator",
    "ZERO_TRUST_POLICY",
    "quorum_blockers",
    "transfer_blockers",
]
