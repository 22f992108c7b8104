"""A compromised client, and a leader that only slows down, inside a
SMaRt-SCADA deployment: the library scenarios that drill them.

A client's key is its blast radius. Malformed frames under it cost one
rejected envelope per replica; leaving the leader out of its multicasts
costs one patience of latency, not a leader change; two bodies signed
under one sequence cost the followers holding the other one a fetch, and
the leader's body is ordered once. A leader that holds
every PROPOSE for just under ``request_timeout`` is outrun by the
followers' patience, and the throughput-floor monitor states how much of
its write throughput the group kept.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.chaos import ThroughputFloorMonitor, get_scenario, run_campaign
from repro.chaos.campaign import WriteRecord
from repro.chaos.monitors import default_monitors
from repro.ids.scoring import GroundTruthEpisode
from repro.wire import decode


class _Probe(ThroughputFloorMonitor):
    """The default throughput floor, plus each replica's end state."""

    def finish(self, ctx) -> None:
        super().finish(ctx)
        self.regencies = [pm.replica.regency for pm in ctx.system.proxy_masters]
        self.rejected = [pm.replica.channel.rejected for pm in ctx.system.proxy_masters]
        self.fetches = [pm.replica.fetches for pm in ctx.system.proxy_masters]
        self.decided = [
            [
                (request.key(), request.operation)
                for _cid, value, _timestamp in pm.replica.decision_log
                if value
                for request in decode(value).requests
            ]
            for pm in ctx.system.proxy_masters
        ]


def _run(name: str, seed: int = 0, **views):
    scenario = get_scenario(name)
    probe = _Probe()
    monitors = [m for m in default_monitors() if not isinstance(m, ThroughputFloorMonitor)]
    report = run_campaign(
        scenario.schedule(), scenario.config(seed=seed, **views), monitors=monitors + [probe]
    )
    return report, probe


def test_client_garbage_costs_one_rejected_envelope_per_frame_and_replica():
    report, probe = _run("client-garbage", ids=True)
    assert report.ok
    assert probe.rejected == [30] * 4
    assert probe.regencies == [0] * 4
    assert report.writes_succeeded == report.writes_total
    # The rejection surge reads as a spoofed Frontend, against the
    # planted ``spoof`` episode.
    assert {(d.kind, d.entity) for d in report.detections} == {
        ("spoofed-frontend", "ingress")
    }
    assert report.ids_score["false_positive_count"] == 0


def test_client_partial_multicast_keeps_the_leader():
    report, probe = _run("client-partial-multicast", ids=True)
    assert report.ok
    assert report.fault_stats["total_fired"] > 0  # the leader's copies were dropped
    assert probe.regencies == [0] * 4
    assert report.writes_succeeded == report.writes_total
    assert report.detections == []


def test_client_equivocating_sequence_orders_the_leaders_body_once():
    report, probe = _run("client-equivocating-sequence", ids=True)
    assert report.ok
    assert report.fault_stats["total_fired"] == 2  # body B, to replicas 2 and 3
    # The two followers holding body B fetched the leader's requests.
    assert probe.fetches == [0, 0, 1, 1]
    assert probe.regencies == [0] * 4
    decided = probe.decided[0]
    assert all(stream == decided for stream in probe.decided)
    keys = [key for key, _operation in decided]
    assert len(keys) == len(set(keys))
    assert not any(op.startswith(b"\x00equivocated") for _key, op in decided)
    assert report.writes_succeeded == report.writes_total
    # A client that equivocates to the replicas is no replica fault: the
    # IDS stays quiet.
    assert report.detections == []


def test_slow_leader_is_replaced_and_the_group_keeps_its_writes():
    report, probe = _run("slow-leader")
    assert report.ok
    assert min(probe.regencies) >= 1
    [(entity, start, end, kept)] = probe.fractions
    assert entity == "replica-0" and (start, end) == (1.5, 4.5)
    assert kept == 1.0
    assert report.writes_succeeded == report.writes_total == 24


def test_throughput_floor_states_the_fraction_kept_and_flags_it_below_the_floor():
    violations = []
    writes = []
    for number, (submitted, success) in enumerate(
        [(1.0, True), (2.0, False), (2.5, False), (3.0, True), (3.5, False), (5.0, False)]
    ):
        record = WriteRecord(number, "plant.actuator", number, submitted)
        record.success = success
        writes.append(record)
    episode = GroundTruthEpisode("byzantine", "replica-0", 2.0, 4.0, behaviour="slow")
    other = GroundTruthEpisode("byzantine", "replica-2", 0.0, 6.0, behaviour="silent")
    ctx = SimpleNamespace(
        writes=writes,
        ground_truth_episodes=lambda: [episode, other],
        record_violation=lambda invariant, detail: violations.append((invariant, detail)),
    )
    monitor = ThroughputFloorMonitor()
    monitor.finish(ctx)
    # Writes submitted at 2.0, 2.5, 3.0 and 3.5: one of four succeeded.
    assert monitor.fractions == [("replica-0", 2.0, 4.0, 0.25)]
    [(invariant, detail)] = violations
    assert invariant == "throughput-floor"
    assert "kept 25% of its fault-free write throughput" in detail
