"""Threshold detectors over the windowed trace features.

The :class:`IntrusionDetector` is polled on the campaign's existing
monitor grid (no events of its own), reads the
:class:`~repro.ids.features.FeatureExtractor` windows plus the metrics
registry, and emits typed :class:`Detection` events when a normalized
risk score crosses the alert threshold. Each detector keys on the
signature its Byzantine behaviour cannot avoid leaving in the trace:

``byzantine-silent``
    The replica machine answers the host-liveness probe (its network
    endpoint is up) yet produced **no** protocol spans for a full
    silence window while its peers kept deciding. A *crashed* machine
    fails the probe, which is how benign crashes and leader kills stay
    out of the alert stream — the bump-in-the-wire distinction.
``byzantine-stuttering``
    Consensus spans keep flowing from the replica but no client
    accepted a reply from it for a full window while other replicas'
    replies flowed normally (ordering yes, service no).
``byzantine-lying``
    Divergent *ordered* replies (``reply.mismatch``): honest replicas
    answer one ``(client, sequence)`` identically, so repeated
    divergence is deliberate.
``byzantine-falsifying``
    Divergent pushes (``push.mismatch``): ItemUpdate copies whose
    payload disagrees with the f+1-voted delivery.
``byzantine-equivocating``
    A suspicion burst — at least ``f+1`` distinct replicas STOP-voting
    first-hand against a leader for a batch that failed validation
    (cause ``invalid``), which no correct leader proposes. A leader that
    went quiet (``silent``, the normal crash recovery), a proposal that
    never decided (``stalled``: a partition or message loss does that to
    a correct leader too) and replicas joining others' votes
    (``joined``) are ignored.
``write-burst``
    An HMI client's write rate exceeds its learned (warm-up) duty cycle
    by ``WRITE_RATE_MULTIPLIER`` — the command-injection profile.
``spoofed-frontend``
    The per-replica rejected-envelope counters (metrics registry) climb
    in lockstep on ``f+1`` or more replicas: forged traffic is being
    dropped at the secure channels.

The thresholds are the module constants below, read at call time
(``docs/IDS.md`` tabulates them).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.bftsmart.config import replica_address

_NEVER = -1.0e9

#: Learning period: no detections are emitted before this instant,
#: and write-rate baselines are frozen when it ends.
WARMUP = 1.0
#: Rolling window (seconds) of every feature and of the spoofing deltas.
WINDOW = 1.0
#: Protocol silence needed to call an *up* replica silent.
SILENCE_WINDOW = 1.5
#: Reply silence needed to call a consensus-active replica stuttering.
REPLY_SILENCE_WINDOW = 1.5
#: Grace after a machine comes back up before silence counts again.
RECOVERY_GRACE = 0.75
#: Divergent ordered replies per window to call a replica lying.
MISMATCH_THRESHOLD = 2
#: Divergent pushes per window to call a replica falsifying.
PUSH_MISMATCH_THRESHOLD = 2
#: Peers that must be making consensus progress for silence verdicts.
PEER_ACTIVITY_MIN = 2
#: Write-rate multiple over the learned baseline that flags a burst.
WRITE_RATE_MULTIPLIER = 4.0
#: Absolute floor (writes/second) under which bursts are never flagged.
WRITE_BURST_FLOOR = 6.0
#: Rejected envelopes per window (summed over replicas) for spoofing.
SPOOF_THRESHOLD = 5
#: Normalized risk score at/above which a Detection is emitted.
ALERT_THRESHOLD = 1.0


@dataclass(frozen=True)
class Detection:
    """One intrusion alert: an entity crossed a detector's threshold."""

    time: float
    #: ``byzantine-<behaviour>`` / ``write-burst`` / ``spoofed-frontend``.
    kind: str
    #: The flagged entity (replica address, HMI client, or ``ingress``).
    entity: str
    #: Normalized risk score (1.0 = exactly at threshold).
    score: float
    #: Which detector fired.
    detector: str
    evidence: str = ""
    #: Stable per-run identity (``"d1"``, ``"d2"``, ...) so downstream
    #: consumers — the recovery orchestrator's action log above all —
    #: can cite the exact detection that triggered an action.
    uid: str = ""


@dataclass(frozen=True)
class Verdict:
    """An *actionable* detector state: a detection plus its persistence.

    A raw :class:`Detection` is a threshold crossing — one noisy window
    can produce it. A verdict is what response policy should consume:
    the condition is still asserted now, has held for ``streak``
    consecutive polls, and ``peak_score`` is the worst score seen while
    asserted. The orchestrator's corroboration threshold is a minimum
    streak, so an adversary cannot weaponize one low-confidence blip
    into a self-inflicted recovery action.
    """

    detection: Detection
    streak: int
    peak_score: float

    @property
    def kind(self) -> str:
        return self.detection.kind

    @property
    def entity(self) -> str:
        return self.detection.entity


@dataclass
class _HostState:
    """Per-replica liveness bookkeeping from the endpoint probe."""

    last_down: float = _NEVER
    down_now: bool = False


class IntrusionDetector:
    """Online detector polled on the campaign's monitor grid.

    Entirely passive: reads features, probes endpoint liveness and the
    metrics registry, appends to :attr:`detections`. The same seed and
    schedule always produce the identical detection stream.
    """

    def __init__(
        self,
        sim,
        net,
        features,
        *,
        n: int = 4,
        f: int = 1,
        rejected_reader=None,
    ) -> None:
        self.sim = sim
        self.net = net
        #: The :class:`~repro.ids.features.FeatureExtractor` it reads.
        self.features = features
        self.n = n
        self.f = f
        self.replicas = [replica_address(i) for i in range(n)]
        #: Zero-arg callable -> {replica address: rejected-envelope total}.
        self._rejected_reader = rejected_reader
        self.detections: list = []
        #: entity -> {kind: latest normalized score} (below-threshold too).
        self.risk: dict[str, dict] = {}
        #: (kind, entity) pairs currently asserted (hysteresis).
        self._asserted: set = set()
        #: (kind, entity) -> consecutive polls at/above threshold.
        self._streak: dict[tuple, int] = {}
        #: (kind, entity) -> worst score seen during the current assertion.
        self._peak: dict[tuple, float] = {}
        #: (kind, entity) -> the Detection that opened the assertion.
        self._latest: dict[tuple, Detection] = {}
        self._hosts = {addr: _HostState() for addr in self.replicas}
        #: Learned per-client write rates (frozen at warm-up end).
        self._write_baseline: dict[str, float] = {}
        self._baseline_frozen = False
        #: deque[(time, {replica: rejected total})] for windowed deltas.
        self._rejected_samples: deque = deque()
        self.polls = 0

    # -- helpers ---------------------------------------------------------

    def _score(self, entity: str, kind: str, score: float) -> None:
        self.risk.setdefault(entity, {})[kind] = score

    def _verdict(
        self, kind: str, entity: str, score: float, detector: str, evidence: str
    ) -> None:
        """Assert or clear one (kind, entity) condition with hysteresis."""
        self._score(entity, kind, score)
        key = (kind, entity)
        if score >= ALERT_THRESHOLD:
            self._streak[key] = self._streak.get(key, 0) + 1
            self._peak[key] = max(self._peak.get(key, 0.0), round(score, 4))
            if key not in self._asserted:
                self._asserted.add(key)
                detection = Detection(
                    time=self.sim.now,
                    kind=kind,
                    entity=entity,
                    score=round(score, 4),
                    detector=detector,
                    evidence=evidence,
                    uid=f"d{len(self.detections) + 1}",
                )
                self.detections.append(detection)
                self._latest[key] = detection
        else:
            self._asserted.discard(key)
            self._streak.pop(key, None)
            self._peak.pop(key, None)

    def _probe_hosts(self, now: float) -> None:
        for addr, host in self._hosts.items():
            down = self.net.endpoint(addr).down
            host.down_now = down
            if down:
                host.last_down = now

    def _reference(self, host: _HostState, *marks: float) -> float:
        """Latest instant the entity was provably fine."""
        ref = WARMUP
        if host.last_down > _NEVER:
            ref = max(ref, host.last_down + RECOVERY_GRACE)
        for mark in marks:
            ref = max(ref, mark)
        return ref

    # -- the poll --------------------------------------------------------

    def poll(self) -> None:
        now = self.sim.now
        self.polls += 1
        features = self.features
        features.prune(now)
        self._probe_hosts(now)
        self._learn_write_baseline(now)
        if now < WARMUP:
            return
        self._detect_silent(now)
        self._detect_stuttering(now)
        self._detect_lying(now)
        self._detect_falsifying(now)
        self._detect_equivocation(now)
        self._detect_write_bursts(now)
        self._detect_spoofing(now)

    # -- replica detectors ----------------------------------------------

    def _detect_silent(self, now: float) -> None:
        features = self.features
        active_peers = {
            addr for addr in self.replicas if features.consensus_count(addr) > 0
        }
        for addr in self.replicas:
            host = self._hosts[addr]
            if host.down_now:
                self._verdict("byzantine-silent", addr, 0.0, "silence", "")
                continue
            peers = len(active_peers - {addr})
            if peers < PEER_ACTIVITY_MIN:
                self._verdict("byzantine-silent", addr, 0.0, "silence", "")
                continue
            ref = self._reference(host, features.last_activity.get(addr, 0.0))
            score = (now - ref) / SILENCE_WINDOW
            self._verdict(
                "byzantine-silent",
                addr,
                score,
                "silence",
                f"no protocol spans for {now - ref:.2f}s while up and "
                f"{peers} peers decided",
            )

    def _detect_stuttering(self, now: float) -> None:
        features = self.features
        recent = 2.0 * WINDOW
        replying_peers = {
            addr
            for addr in self.replicas
            if now - features.last_reply.get(addr, _NEVER) <= recent
        }
        for addr in self.replicas:
            host = self._hosts[addr]
            ordering = (
                features.consensus_count(addr) > 0
                or now - features.last_activity.get(addr, _NEVER) <= recent
            )
            peers = len(replying_peers - {addr})
            if host.down_now or not ordering or peers < PEER_ACTIVITY_MIN:
                self._verdict("byzantine-stuttering", addr, 0.0, "reply-silence", "")
                continue
            ref = self._reference(host, features.last_reply.get(addr, 0.0))
            score = (now - ref) / REPLY_SILENCE_WINDOW
            self._verdict(
                "byzantine-stuttering",
                addr,
                score,
                "reply-silence",
                f"orders consensus but no client accepted a reply from it "
                f"for {now - ref:.2f}s",
            )

    def _detect_lying(self, now: float) -> None:
        for addr in self.replicas:
            count = self.features.mismatch_count(addr)
            self._verdict(
                "byzantine-lying",
                addr,
                count / MISMATCH_THRESHOLD,
                "reply-divergence",
                f"{count} divergent ordered replies in the window",
            )

    def _detect_falsifying(self, now: float) -> None:
        for addr in self.replicas:
            count = self.features.push_mismatch_count(addr)
            self._verdict(
                "byzantine-falsifying",
                addr,
                count / PUSH_MISMATCH_THRESHOLD,
                "push-divergence",
                f"{count} divergent pushed updates in the window",
            )

    def _detect_equivocation(self, now: float) -> None:
        quorum = self.f + 1
        suspecters: dict[str, set] = {}
        for _t, who, leader, cause in self.features.suspects:
            # The one cause that blames the leader for what it proposed.
            if leader and who != leader and cause == "invalid":
                suspecters.setdefault(leader, set()).add(who)
        for addr in self.replicas:
            burst = suspecters.get(addr, set())
            self._verdict(
                "byzantine-equivocating",
                addr,
                len(burst) / quorum,
                "suspicion-burst",
                f"{len(burst)} replicas suspect a leader of an invalid "
                f"proposal",
            )

    # -- frontend / client detectors ------------------------------------

    def _learn_write_baseline(self, now: float) -> None:
        if self._baseline_frozen:
            return
        for client in self.features.writes:
            rate = self.features.write_rate(client)
            if rate > self._write_baseline.get(client, 0.0):
                self._write_baseline[client] = rate
        if now >= WARMUP:
            self._baseline_frozen = True

    def _detect_write_bursts(self, now: float) -> None:
        for client in self.features.writes:
            rate = self.features.write_rate(client)
            baseline = max(
                self._write_baseline.get(client, 0.0),
                WRITE_BURST_FLOOR / WRITE_RATE_MULTIPLIER,
            )
            score = rate / (baseline * WRITE_RATE_MULTIPLIER)
            spread = self.features.write_tag_spread(client)
            self._verdict(
                "write-burst",
                client,
                score,
                "write-profile",
                f"{rate:.1f} writes/s vs learned {baseline:.1f}/s "
                f"across {spread} tags",
            )

    def _detect_spoofing(self, now: float) -> None:
        totals = self._read_rejected()
        samples = self._rejected_samples
        samples.append((now, totals))
        while samples and samples[0][0] < now - WINDOW:
            samples.popleft()
        oldest = samples[0][1]
        deltas = {
            addr: max(0, totals.get(addr, 0) - oldest.get(addr, 0))
            for addr in self.replicas
        }
        climbing = sum(1 for delta in deltas.values() if delta > 0)
        total = sum(deltas.values())
        score = total / SPOOF_THRESHOLD if climbing >= self.f + 1 else 0.0
        self._verdict(
            "spoofed-frontend",
            "ingress",
            score,
            "rejected-envelopes",
            f"{total} rejected envelopes across {climbing} replicas "
            f"in the window",
        )

    def _read_rejected(self) -> dict:
        if self._rejected_reader is not None:
            return dict(self._rejected_reader())
        totals = {}
        read = getattr(self.sim.metrics, "read", None)
        if read is None:
            return totals
        for addr in self.replicas:
            group = read(f"replica.{addr}")
            if isinstance(group, dict):
                totals[addr] = group.get("rejected_envelopes", 0) + group.get(
                    "rejected_requests", 0
                )
        return totals

    # -- reads -----------------------------------------------------------

    def verdicts(self, min_streak: int = 1, kinds: tuple | None = None) -> list:
        """Currently-asserted conditions corroborated for ``min_streak`` polls.

        The actionable read for response automation: each
        :class:`Verdict` carries the opening :class:`Detection` (with
        its ``uid``), the consecutive-poll streak and the peak score.
        Returned in detection order, so consumers iterate
        deterministically.
        """
        out = []
        for key in sorted(
            self._asserted, key=lambda k: self._latest[k].uid if k in self._latest else ""
        ):
            if key not in self._latest:
                continue
            streak = self._streak.get(key, 0)
            if streak < min_streak:
                continue
            if kinds is not None and key[0] not in kinds:
                continue
            out.append(
                Verdict(
                    detection=self._latest[key],
                    streak=streak,
                    peak_score=self._peak.get(key, 0.0),
                )
            )
        out.sort(key=lambda v: int(v.detection.uid[1:]))
        return out
