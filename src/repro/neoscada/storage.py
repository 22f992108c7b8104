"""Event storage: the Master's persistent event/alarm log.

Every event a handler creates is "saved in the storage" (paper §II-A)
before being forwarded to AE subscribers. The store keeps a bounded,
time-ordered log with query support, and exposes its content in a
canonical form so replicated Masters can include it in snapshots.
"""

from __future__ import annotations

from collections import deque

from repro.neoscada.ae.events import EventRecord

#: Events an :class:`EventStorage` built now retains; older ones rotate out.
EVENT_CAPACITY = 100_000


class StorageStation:
    """Closed-form timing model of the storage writer thread.

    The writer persists events one at a time at ``service_time`` seconds
    each, buffering up to ``buffer_size`` submissions. :meth:`submit`
    returns how long the *producer* must stall: zero while the backlog
    fits the buffer, and the overflow drain time once it does not. This
    reproduces the saturation behaviour of a real bounded-queue writer
    without simulating a process per write.
    """

    def __init__(self, service_time: float, buffer_size: int) -> None:
        if service_time < 0 or buffer_size < 1:
            raise ValueError("invalid storage station parameters")
        self.service_time = service_time
        self.buffer_size = buffer_size
        self.busy_until = 0.0
        self.submitted = 0

    def submit(self, now: float, count: int) -> float:
        """Enqueue ``count`` writes at time ``now``; returns producer stall."""
        if count <= 0:
            return 0.0
        start = max(now, self.busy_until)
        self.busy_until = start + count * self.service_time
        self.submitted += count
        headroom = self.buffer_size * self.service_time
        return max(0.0, self.busy_until - now - headroom)


class EventStorage:
    """Bounded, append-ordered event log (:data:`EVENT_CAPACITY` events)."""

    def __init__(self) -> None:
        capacity = EVENT_CAPACITY
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._events: deque = deque()
        #: Total events ever written (survives rotation).
        self.total_written = 0

    def __len__(self) -> int:
        return len(self._events)

    def append(self, event: EventRecord) -> None:
        """Persist one event, rotating out the oldest beyond capacity."""
        self._events.append(event)
        self.total_written += 1
        while len(self._events) > self.capacity:
            self._events.popleft()

    def query(
        self,
        item_id: str = "*",
        start: float = float("-inf"),
        end: float = float("inf"),
        event_type: str | None = None,
        limit: int | None = None,
    ) -> list:
        """Events matching the filters, oldest first."""
        results = []
        for event in self._events:
            if not event.matches(item_id):
                continue
            if not start <= event.timestamp <= end:
                continue
            if event_type is not None and event.event_type != event_type:
                continue
            results.append(event)
            if limit is not None and len(results) >= limit:
                break
        return results

    def latest(self, count: int = 1) -> list:
        """The most recent ``count`` events, oldest first."""
        if count <= 0:
            return []
        return list(self._events)[-count:]

    def to_tuple(self) -> tuple:
        """Canonical content for snapshots and digests."""
        return tuple(self._events)

    def restore(self, events, total_written: int | None = None) -> None:
        """Replace contents (snapshot installation)."""
        self._events = deque(events)
        while len(self._events) > self.capacity:
            self._events.popleft()
        self.total_written = (
            len(self._events) if total_written is None else total_written
        )
