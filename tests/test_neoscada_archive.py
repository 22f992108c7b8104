"""Tests for the historical-data (value archive) subsystem."""

import pytest

from repro.core import build_neoscada
from repro.neoscada import DataValue, Quality
from repro.neoscada import archive as neoscada_archive
from repro.neoscada.archive import TrendRecorder, ValueArchive
from repro.sim import Simulator


def sample(value, t):
    return DataValue(value, Quality.GOOD, t)


def test_raw_series_records_in_order():
    archive = ValueArchive()
    for i in range(5):
        archive.record("a", sample(i * 10, float(i)))
    assert archive.raw("a") == [(0.0, 0.0), (1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
    assert archive.raw("a", start=1.5, end=3.0) == [(2.0, 20.0), (3.0, 30.0)]
    assert archive.items() == ["a"]
    assert archive.samples_recorded == 5


def test_raw_capacity_is_bounded(monkeypatch):
    monkeypatch.setattr(neoscada_archive, "RAW_CAPACITY", 3)
    archive = ValueArchive()
    for i in range(10):
        archive.record("a", sample(i, float(i)))
    assert [v for _t, v in archive.raw("a")] == [7.0, 8.0, 9.0]


def test_non_numeric_and_bad_quality_skipped():
    archive = ValueArchive()
    archive.record("a", sample("text", 0.0))
    archive.record("a", sample(True, 1.0))
    archive.record("a", DataValue(5, Quality.BAD, 2.0))
    archive.record("a", sample(None, 3.0))
    assert archive.raw("a") == []
    assert archive.samples_recorded == 0


def test_trend_buckets_aggregate(monkeypatch):
    monkeypatch.setattr(neoscada_archive, "RESOLUTIONS", (1.0, 10.0))
    archive = ValueArchive()
    for tenth in range(25):  # t = 0.0 .. 2.4s
        archive.record("a", sample(tenth, tenth / 10))
    one_second = archive.trend("a", 1.0)
    assert [b.start for b in one_second] == [0.0, 1.0, 2.0]
    first = one_second[0]
    assert first.count == 10
    assert first.minimum == 0 and first.maximum == 9
    assert first.mean == pytest.approx(4.5)
    assert first.last == 9
    ten_second = archive.trend("a", 10.0)
    assert len(ten_second) == 1
    assert ten_second[0].count == 25


def test_trend_unknown_level_rejected(monkeypatch):
    monkeypatch.setattr(neoscada_archive, "RESOLUTIONS", (1.0,))
    archive = ValueArchive()
    archive.record("a", sample(1, 0.0))
    with pytest.raises(KeyError):
        archive.trend("a", 42.0)
    assert archive.trend("ghost", 1.0) == []


def test_trend_window_query(monkeypatch):
    monkeypatch.setattr(neoscada_archive, "RESOLUTIONS", (1.0,))
    archive = ValueArchive()
    for i in range(10):
        archive.record("a", sample(i, float(i)))
    window = archive.trend("a", 1.0, start=3.0, end=5.0)
    assert [b.start for b in window] == [3.0, 4.0, 5.0]


def test_out_of_order_straggler_dropped(monkeypatch):
    monkeypatch.setattr(neoscada_archive, "RESOLUTIONS", (1.0,))
    archive = ValueArchive()
    archive.record("a", sample(1, 5.0))
    archive.record("a", sample(2, 1.0))  # older bucket: dropped from trend
    assert [b.start for b in archive.trend("a", 1.0)] == [5.0]


def test_statistics():
    archive = ValueArchive()
    for value in (5, 1, 9, 3):
        archive.record("a", sample(value, float(value)))
    stats = archive.statistics("a")
    assert stats == {"count": 4, "min": 1.0, "max": 9.0, "mean": 4.5, "last": 3.0}
    assert archive.statistics("ghost") == {"count": 0}


def test_archive_validation(monkeypatch):
    for resolutions in ((), (10.0, 1.0), (0.0,)):
        monkeypatch.setattr(neoscada_archive, "RESOLUTIONS", resolutions)
        with pytest.raises(ValueError):
            ValueArchive()


def test_trend_recorder_captures_hmi_stream():
    sim = Simulator(seed=1)
    system = build_neoscada(sim)
    system.frontend.add_item("sensor", initial=0)
    system.start()
    seen = []
    system.hmi.on_value_change = lambda item, value: seen.append(item)
    recorder = TrendRecorder(system.hmi)
    for i in range(5):
        system.frontend.inject_update("sensor", i + 1)
        sim.run(until=sim.now + 0.1)
    stats = recorder.archive.statistics("sensor")
    assert stats["count"] == 5
    assert stats["last"] == 5.0
    # The pre-existing observer still fires (chained, not replaced).
    assert len(seen) == 5
    recorder.detach()
    system.frontend.inject_update("sensor", 99)
    sim.run(until=sim.now + 0.2)
    assert recorder.archive.statistics("sensor")["count"] == 5
    assert len(seen) == 6
