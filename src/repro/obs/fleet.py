"""The fleet health scoreboard: one pane over a sharded deployment.

:class:`FleetScoreboard` folds what the stack already measures — the
:class:`~repro.obs.metrics.MetricsRegistry` snapshot, replica liveness
and leader state, the global AE merger's holdback buffer, the shard
router cache, IDS verdicts and heal actions — into per-shard
:class:`ShardHealth` plus a fleet-level status, and feeds each
:class:`FleetSample` to an attached :class:`~repro.obs.slo.SloEngine`.

The scoreboard is strictly **passive**: :meth:`FleetScoreboard.sample`
reads live objects and registry values but never schedules an event,
sends a message, or mutates component state — so campaign fingerprints
and decided streams are bit-identical with the scoreboard on or off
(``tests/test_fleet_determinism.py``). Liveness is judged from both
sides of a replica: ``replica.active`` (process-level crashes,
rejuvenation gaps) *and* the network endpoint's ``down`` flag (chaos
``net.crash`` kills a machine without telling the replica object).

It reads a :class:`~repro.core.system.SmartScadaSystem`: one row per
shard, so the classic one-group deployment is a one-row board. A group
is its *current* members (spares joined, evicted replicas gone).
"""

from __future__ import annotations

from dataclasses import dataclass, field


_STATUS_RANK = {"ok": 0, "degraded": 1, "critical": 2}


def _worse(a: str, b: str) -> str:
    return a if _STATUS_RANK[a] >= _STATUS_RANK[b] else b


@dataclass
class ShardHealth:
    """One BFT group's health at a sampling instant."""

    shard: int
    #: Current membership (a grown group counts its spare, an evicted
    #: replica no longer counts) / configured fault budget of the group.
    n: int
    f: int
    #: Replicas the protocol needs answering: 2f+1.
    quorum: int
    #: Members currently active *and* network-reachable.
    live: int
    #: Replica address the group's live members follow ("" = unknown).
    leader: str
    #: Cumulative leader changes observed since sampling began.
    leader_changes: int
    #: Sum of decided / executed consensus instances across the group.
    decided: int
    executed: int
    #: Deepest configured pipeline and mean occupancy across members.
    pipeline_depth: int
    pipeline_occupancy: float
    #: ``ok`` | ``degraded`` | ``critical`` with human-readable reasons.
    status: str = "ok"
    reasons: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "shard": self.shard,
            "n": self.n,
            "f": self.f,
            "quorum": self.quorum,
            "live": self.live,
            "leader": self.leader,
            "leader_changes": self.leader_changes,
            "decided": self.decided,
            "executed": self.executed,
            "pipeline_depth": self.pipeline_depth,
            "pipeline_occupancy": round(self.pipeline_occupancy, 4),
            "status": self.status,
            "reasons": list(self.reasons),
        }


@dataclass
class FleetSample:
    """One scoreboard reading (everything the SLO engine evaluates)."""

    time: float
    shards: list
    #: Fleet-level verdict: worst shard status, lifted to at least
    #: ``degraded`` while any SLO budget is burning.
    status: str = "ok"
    #: ``hmi.write.latency`` summary (None before the first write).
    write_latency: dict | None = None
    #: Cumulative bucket counts for the latency SLO's delta windows.
    write_latency_buckets: dict = field(default_factory=dict)
    #: Age of the oldest AE event still held back by the merger.
    freshness_age: float = 0.0
    #: Global AE merger counters + current buffer depth.
    holdback: dict = field(default_factory=dict)
    #: Shard router cache counters + hit rate.
    router: dict = field(default_factory=dict)
    #: Cumulative IDS detections and heal actions visible so far.
    detections: int = 0
    heal_actions: int = 0
    #: Current burn rate per SLO key (filled when an engine is attached).
    burn: dict = field(default_factory=dict)
    #: Cumulative SLO violations after evaluating this sample.
    violations: int = 0
    #: Violations that fired *on* this sample.
    new_violations: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "time": round(self.time, 6),
            "status": self.status,
            "shards": [health.as_dict() for health in self.shards],
            "write_latency": self.write_latency,
            "freshness_age": round(self.freshness_age, 6),
            "holdback": dict(self.holdback),
            "router": dict(self.router),
            "detections": self.detections,
            "heal_actions": self.heal_actions,
            "burn": {k: round(v, 4) for k, v in self.burn.items()},
            "violations": self.violations,
            "new_violations": [v.as_dict() for v in self.new_violations],
        }


class FleetScoreboard:
    """Folds a deployment's signals into per-shard + fleet health."""

    def __init__(
        self,
        system,
        slo_engine=None,
        detector=None,
        orchestrator=None,
    ) -> None:
        self.system = system
        self.slo_engine = slo_engine
        self.detector = detector
        self.orchestrator = orchestrator
        #: Every sample taken, in order.
        self.samples: list = []
        #: Status flips: {"time", "scope", "from", "to"} dicts, where
        #: scope is ``"fleet"`` or ``"s<k>"``.
        self.transitions: list = []
        self._last_status: dict = {}
        self._last_leader: dict = {}
        self._leader_changes: dict = {}

    # -- sampling --------------------------------------------------------

    def _is_live(self, pm) -> bool:
        if not pm.replica.active:
            return False
        net = self.system.net
        # chaos `net.crash` downs the endpoint without touching the
        # replica object — a killed machine must not count as live.
        if net.has_endpoint(pm.address) and net.endpoint(pm.address).down:
            return False
        return True

    def _shard_health(self, shard: int) -> ShardHealth:
        base = self.system.config.base
        metrics = self.system.sim.metrics
        members = self.system.group(shard)
        live_members = [pm for pm in members if self._is_live(pm)]

        leader = ""
        for pm in live_members:
            candidate = getattr(pm.replica, "leader", "")
            if candidate:
                leader = candidate
                break
        last = self._last_leader.get(shard)
        if leader and last is not None and leader != last:
            self._leader_changes[shard] = self._leader_changes.get(shard, 0) + 1
        if leader:
            self._last_leader[shard] = leader

        decided = executed = 0
        depth = 0
        occupancies = []
        for pm in members:
            service = metrics.read(f"replica.{pm.address}") or {}
            decided += service.get("decided", 0)
            executed += service.get("executed", 0)
            pipeline = metrics.read(f"pipeline.{pm.address}") or {}
            depth = max(depth, pipeline.get("depth", 0))
            if "occupancy_mean" in pipeline:
                occupancies.append(pipeline["occupancy_mean"])

        quorum = 2 * base.f + 1
        health = ShardHealth(
            shard=shard,
            n=len(members),
            f=base.f,
            quorum=quorum,
            live=len(live_members),
            leader=leader,
            leader_changes=self._leader_changes.get(shard, 0),
            decided=decided,
            executed=executed,
            pipeline_depth=depth,
            pipeline_occupancy=(
                sum(occupancies) / len(occupancies) if occupancies else 0.0
            ),
        )

        if health.live < quorum:
            health.status = "critical"
            health.reasons.append(
                f"live {health.live} below quorum {quorum}"
            )
        elif health.live < health.n:
            health.status = "degraded"
            health.reasons.append(f"live {health.live} of {health.n} members")
        if leader:
            leader_pm = next(
                (pm for pm in members if pm.address == leader), None
            )
            if leader_pm is not None and not self._is_live(leader_pm):
                health.status = _worse(health.status, "degraded")
                health.reasons.append(f"leader {leader} unreachable")
        elif members:
            health.status = _worse(health.status, "degraded")
            health.reasons.append("no leader visible")
        return health

    def _merger_view(self, now: float) -> tuple:
        merger = self.system.proxy_hmi.merger
        stats = dict(merger.stats)
        stats["pending"] = merger.pending
        return merger.oldest_pending_age(now), stats

    def _router_view(self) -> dict:
        stats = dict(self.system.proxy_hmi.router.stats)
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        stats["hit_rate"] = (
            round(stats.get("hits", 0) / lookups, 4) if lookups else 1.0
        )
        return stats

    def sample(self) -> FleetSample:
        """Take one passive reading (and run the SLO engine over it)."""
        sim = self.system.sim
        now = sim.now
        shard_healths = [self._shard_health(k) for k in range(self.system.shards)]

        latency = sim.metrics.read("hmi.write.latency")
        freshness_age, holdback = self._merger_view(now)
        sample = FleetSample(
            time=now,
            shards=shard_healths,
            write_latency=latency,
            write_latency_buckets=(latency or {}).get("buckets", {}),
            freshness_age=freshness_age,
            holdback=holdback,
            router=self._router_view(),
            detections=(
                len(self.detector.detections) if self.detector else 0
            ),
            heal_actions=(
                len(self.orchestrator.actions) if self.orchestrator else 0
            ),
        )

        status = "ok"
        for health in shard_healths:
            status = _worse(status, health.status)
        if self.slo_engine is not None:
            sample.new_violations = self.slo_engine.evaluate(sample)
            sample.violations = len(self.slo_engine.violations)
            sample.burn = dict(self.slo_engine.summary()["burn"])
            if self.slo_engine.burning():
                status = _worse(status, "degraded")
        sample.status = status

        self._record_transition("fleet", status, now)
        for health in shard_healths:
            self._record_transition(f"s{health.shard}", health.status, now)
        self.samples.append(sample)
        return sample

    def _record_transition(self, scope: str, status: str, now: float) -> None:
        last = self._last_status.get(scope)
        if last is not None and last != status:
            self.transitions.append(
                {"time": round(now, 6), "scope": scope,
                 "from": last, "to": status}
            )
        self._last_status[scope] = status

    # -- reading ---------------------------------------------------------

    @property
    def latest(self) -> FleetSample | None:
        return self.samples[-1] if self.samples else None

    def to_dict(self) -> dict:
        """JSON-safe dump: latest sample, transitions, SLO summary."""
        latest = self.latest
        return {
            "shards": self.system.shards,
            "samples": len(self.samples),
            "status": latest.status if latest else "unknown",
            "latest": latest.as_dict() if latest else None,
            "transitions": list(self.transitions),
            "slo": (
                self.slo_engine.summary()
                if self.slo_engine is not None
                else None
            ),
        }
