"""Unit tests for event storage and the storage-station timing model."""

import pytest

from repro.neoscada import EventRecord, EventStorage, Severity
from repro.neoscada import storage as neoscada_storage
from repro.neoscada.storage import StorageStation


def make_event(i, item="item-1", event_type="alarm", ts=None):
    return EventRecord(
        event_id=f"e{i}",
        item_id=item,
        event_type=event_type,
        severity=Severity.ALARM,
        value=i,
        message=f"event {i}",
        timestamp=float(i) if ts is None else ts,
    )


def test_append_and_len():
    storage = EventStorage()
    for i in range(5):
        storage.append(make_event(i))
    assert len(storage) == 5
    assert storage.total_written == 5


def test_capacity_rotation_keeps_newest(monkeypatch):
    monkeypatch.setattr(neoscada_storage, "EVENT_CAPACITY", 3)
    storage = EventStorage()
    for i in range(10):
        storage.append(make_event(i))
    assert len(storage) == 3
    assert [e.event_id for e in storage.latest(3)] == ["e7", "e8", "e9"]
    assert storage.total_written == 10


def test_capacity_must_be_positive(monkeypatch):
    monkeypatch.setattr(neoscada_storage, "EVENT_CAPACITY", 0)
    with pytest.raises(ValueError):
        EventStorage()


def test_query_by_item():
    storage = EventStorage()
    storage.append(make_event(1, item="a"))
    storage.append(make_event(2, item="b"))
    assert [e.event_id for e in storage.query(item_id="a")] == ["e1"]
    assert len(storage.query(item_id="*")) == 2


def test_query_by_time_window():
    storage = EventStorage()
    for i in range(10):
        storage.append(make_event(i))
    result = storage.query(start=3.0, end=5.0)
    assert [e.event_id for e in result] == ["e3", "e4", "e5"]


def test_query_by_type_and_limit():
    storage = EventStorage()
    storage.append(make_event(1, event_type="alarm"))
    storage.append(make_event(2, event_type="override"))
    storage.append(make_event(3, event_type="alarm"))
    assert [e.event_id for e in storage.query(event_type="alarm")] == ["e1", "e3"]
    assert len(storage.query(limit=2)) == 2


def test_latest_edge_cases():
    storage = EventStorage()
    assert storage.latest(0) == []
    assert storage.latest(5) == []
    storage.append(make_event(1))
    assert [e.event_id for e in storage.latest(10)] == ["e1"]


def test_restore_roundtrip():
    storage = EventStorage()
    for i in range(4):
        storage.append(make_event(i))
    snapshot = storage.to_tuple()
    other = EventStorage()
    other.restore(list(snapshot), total_written=storage.total_written)
    assert other.to_tuple() == snapshot
    assert other.total_written == 4


# -- StorageStation ---------------------------------------------------------


def test_station_no_stall_below_buffer():
    station = StorageStation(service_time=0.001, buffer_size=10)
    # 5 writes at t=0: backlog 5 < 10 -> no stall.
    assert station.submit(0.0, 5) == 0.0


def test_station_stalls_when_buffer_exceeded():
    station = StorageStation(service_time=0.001, buffer_size=4)
    stall = station.submit(0.0, 10)
    # busy_until = 10ms; headroom 4ms -> producer stalls 6ms.
    assert stall == pytest.approx(0.006)


def test_station_drains_over_time():
    station = StorageStation(service_time=0.001, buffer_size=1)
    station.submit(0.0, 2)  # busy until 2ms
    # Submitting later, after the backlog drained, causes no stall.
    assert station.submit(0.010, 1) == 0.0


def test_station_saturation_throughput_is_service_rate():
    # Submitting 1 event per tick faster than the service rate: the
    # asymptotic stall per event approaches (1/mu - tick).
    station = StorageStation(service_time=0.002, buffer_size=2)
    now = 0.0
    stalls = []
    for _ in range(1000):
        stall = station.submit(now, 1)
        stalls.append(stall)
        now += 0.001 + stall  # producer advances by its own work + stall
    assert sum(stalls[-100:]) / 100 == pytest.approx(0.001, rel=0.05)


def test_station_zero_count_free():
    station = StorageStation(service_time=0.001, buffer_size=1)
    assert station.submit(0.0, 0) == 0.0
    assert station.submitted == 0


def test_station_validation():
    with pytest.raises(ValueError):
        StorageStation(service_time=-1, buffer_size=1)
    with pytest.raises(ValueError):
        StorageStation(service_time=0.001, buffer_size=0)
