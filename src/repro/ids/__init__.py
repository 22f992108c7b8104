"""Trace-driven intrusion detection for the replicated SCADA.

``repro.ids`` is an *online* anomaly detector that rides the
observability substrate: it subscribes to the live span stream
(:meth:`repro.obs.trace.SpanTracer.subscribe`) and polls the metrics
registry, and from those passive taps maintains per-replica and
per-frontend risk scores. It never adds wire messages, never schedules
simulation events, and never touches the ordered path — a campaign's
fingerprint is bit-identical with the IDS on or off.

- :mod:`repro.ids.features` — windowed trace-derived features:
  consensus-message rate per replica, reply divergence, leader-change /
  suspicion activity, per-client write profiles (rate, tag spread);
- :mod:`repro.ids.detectors` — threshold detectors over those features
  flagging Byzantine replicas (silent / lying / falsifying /
  equivocating / stuttering), spoofed frontends and command-injection
  write bursts, emitting typed :class:`~repro.ids.detectors.Detection`
  events;
- :mod:`repro.ids.scoring` — scores a detection stream against the
  chaos campaign's ground-truth episodes: detection latency, precision,
  recall and F1 per Byzantine behaviour.

The design follows the probability-risk-identification IDS line (risk
scores per protocol signal) and the bump-in-the-wire detectors for
legacy SCADA (host-liveness probes distinguish a crashed machine from a
live-but-protocol-silent compromise).
"""

from repro.ids.detectors import Detection, IntrusionDetector, Verdict
from repro.ids.features import FeatureExtractor
from repro.ids.scoring import GroundTruthEpisode, score_detections

__all__ = [
    "Detection",
    "FeatureExtractor",
    "GroundTruthEpisode",
    "IntrusionDetector",
    "Verdict",
    "score_detections",
]
