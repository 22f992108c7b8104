"""End-to-end intrusion detection plus the scoring machinery.

One test per planted behaviour: run a real campaign with the compromise
in the schedule and check the detector names the right replica with the
right label inside the ground-truth window. The scorer itself is
exercised separately on hand-built detection/episode sets, where
precision, recall, attribution, and false-positive classification can
be asserted exactly.
"""

import pytest

from repro.chaos import run_scenario
from repro.ids import (
    Detection,
    GroundTruthEpisode,
    detectors,
    score_detections,
)

BEHAVIOURS = ("silent", "lying", "falsifying", "equivocating", "stuttering")


def run_swap(behaviour: str, seed: int = 3, **config_overrides):
    # The library's ``ids-<behaviour>`` drill: the equivocation drill
    # compromises the replica that is actually leading, the others a
    # backup.
    index = 0 if behaviour == "equivocating" else 2
    report = run_scenario(
        f"ids-{behaviour}", seed=seed, ids=True, **config_overrides
    )
    return report, f"replica-{index}"


@pytest.mark.parametrize("behaviour", BEHAVIOURS)
def test_byzantine_behaviour_detected_and_attributed(behaviour):
    report, victim = run_swap(behaviour)
    entry = report.ids_score["behaviours"][behaviour]
    assert entry["recall"] == 1.0
    assert entry["precision"] == 1.0
    assert entry["f1"] == 1.0
    assert report.ids_score["false_positive_count"] == 0
    assert any(
        d.kind == f"byzantine-{behaviour}" and d.entity == victim
        for d in report.detections
    )


@pytest.mark.parametrize("behaviour", ("silent", "lying", "falsifying"))
def test_detection_latency_bounded(behaviour):
    report, _victim = run_swap(behaviour)
    entry = report.ids_score["behaviours"][behaviour]
    # Silence takes a full quiet window to assert; divergence is caught
    # on the first mismatching reply.
    bound = 2.0 if behaviour == "silent" else 0.5
    assert entry["mean_latency"] is not None
    assert entry["mean_latency"] <= bound


def test_write_burst_detected():
    report = run_scenario("write-injection", seed=3, ids=True)
    entry = report.ids_score["behaviours"]["write-burst"]
    assert entry["f1"] == 1.0
    assert report.ids_score["false_positive_count"] == 0
    assert any(d.kind == "write-burst" for d in report.detections)


def test_spoofed_frontend_detected():
    report = run_scenario("frontend-spoof", seed=3, ids=True)
    entry = report.ids_score["behaviours"]["spoof"]
    assert entry["f1"] == 1.0
    assert any(d.kind == "spoofed-frontend" for d in report.detections)


def test_alert_threshold_is_respected(monkeypatch):
    """An absurdly high alert threshold silences the detector without
    otherwise changing the run (same fingerprint)."""
    baseline, _ = run_swap("lying")
    monkeypatch.setattr(detectors, "ALERT_THRESHOLD", 1e9)
    report, _ = run_swap("lying")
    assert not report.detections
    assert report.fingerprint() == baseline.fingerprint()


# -- scoring unit tests -----------------------------------------------------


def episode(**kw):
    defaults = dict(kind="byzantine", entity="replica-2", start=1.0, end=4.0,
                    behaviour="lying")
    defaults.update(kw)
    return GroundTruthEpisode(**defaults)


def detection(**kw):
    defaults = dict(time=1.5, kind="byzantine-lying", entity="replica-2",
                    score=2.0, detector="reply-divergence")
    defaults.update(kw)
    return Detection(**defaults)


def test_exact_match_scores_perfectly():
    score = score_detections([detection()], [episode()])
    entry = score["behaviours"]["lying"]
    assert entry["recall"] == entry["precision"] == entry["f1"] == 1.0
    assert entry["mean_latency"] == pytest.approx(0.5)
    assert score["false_positive_count"] == 0


def test_unrelated_detection_is_a_false_positive():
    score = score_detections(
        [detection(entity="replica-0", time=0.5)], [episode()]
    )
    assert score["false_positive_count"] == 1
    assert score["behaviours"]["lying"]["detected"] == 0


def test_mislabel_inside_episode_is_attributed_not_false():
    """Flagging the right compromised replica with the wrong behaviour
    label costs recall, not precision — the operator still isolated the
    right node."""
    score = score_detections(
        [detection(kind="byzantine-stuttering")], [episode()]
    )
    entry = score["behaviours"]["lying"]
    assert entry["detected"] == 0  # exact-kind recall missed ...
    assert score["false_positive_count"] == 0  # ... but no false alarm
    assert score["misattributed"] == 1


def test_grace_window_bounds_late_detections():
    late_ok = detection(time=4.9)
    too_late = detection(time=5.1)
    assert score_detections([late_ok], [episode()],
                            grace=1.0)["false_positive_count"] == 0
    assert score_detections([too_late], [episode()],
                            grace=1.0)["false_positive_count"] == 1


def test_wildcard_entity_admits_any_target():
    spoof = episode(kind="spoof", entity="*", behaviour="")
    score = score_detections(
        [detection(kind="spoofed-frontend", entity="ingress", time=1.2)],
        [spoof],
    )
    assert score["behaviours"]["spoof"]["recall"] == 1.0


def test_vacuous_scoring_is_perfect():
    score = score_detections([], [])
    assert score["false_positive_count"] == 0
    assert score["episodes"] == 0
    assert score["detections"] == 0
