"""Cross-shard alarm correlation over the merged AE stream.

A plant-wide incident (a feeder trip, a coordinated attack) raises
alarms on items that the shard map scattered across several groups; no
single group can see the pattern. The :class:`AlarmCorrelator` consumes
the *globally ordered* AE stream (see :mod:`repro.shard.merge`) and
raises one synthetic ``correlated-alarm`` event whenever alarms from at
least ``min_shards`` distinct shards land within a ``window`` of
logical time.

Determinism: the correlator is a pure function of the merged stream —
its input order is deterministic, its ids are a local counter, and its
timestamps are the triggering event's logical timestamp. Every observer
consuming the same merged stream derives the identical correlations.
"""

from __future__ import annotations

from bisect import insort
from collections import deque

from repro.neoscada.ae.events import EventRecord, Severity

#: Event type of the synthesized cross-shard alarm.
CORRELATED_ALARM = "correlated-alarm"

#: Correlation window of the cross-shard alarm correlator (logical seconds).
CORRELATE_WINDOW = 1.0

#: Severities that count as alarm-grade for correlation.
_ALARM_GRADE = (Severity.WARNING, Severity.ALARM, Severity.ERROR)


class AlarmCorrelator:
    """Detects alarm bursts spanning several shards.

    Parameters
    ----------
    window:
        Logical-time span (seconds) within which alarms correlate.
    min_shards:
        Distinct shards that must alarm within the window to trigger.
    sink:
        ``fn(event)`` receiving each synthesized correlated alarm
        (typically the ProxyHMI's AE server publish).
    """

    def __init__(self, window: float = CORRELATE_WINDOW, min_shards: int = 2, sink=None) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if min_shards < 2:
            raise ValueError("min_shards must be >= 2 (one shard needs no merge)")
        self.window = window
        self.min_shards = min_shards
        self.sink = sink
        #: Alarm-grade ``(timestamp, shard, item_id)`` entries inside the
        #: window, sorted by timestamp so expiry pops from the left.
        self._recent: deque = deque()
        #: shard -> entries of that shard in ``_recent`` (never 0).
        self._per_shard: dict[int, int] = {}
        self._counter = 0
        #: Timestamp until which new correlations are suppressed (one
        #: synthetic alarm per burst, not one per contributing event).
        self._suppress_until = float("-inf")
        #: Every synthesized correlated alarm, in emission order.
        self.correlated: list = []

    def observe(self, shard: int, event: EventRecord):
        """Feed one event from the merged global stream.

        Returns the synthesized :class:`EventRecord` when this event
        completed a cross-shard correlation, else ``None``.
        """
        if event.event_type == CORRELATED_ALARM:
            return None  # never correlate our own output
        if event.severity not in _ALARM_GRADE:
            return None
        now = event.timestamp
        horizon = now - self.window
        recent = self._recent
        while recent and recent[0][0] < horizon:
            self._forget(recent.popleft()[1])
        entry = (now, shard, event.item_id)
        if recent and now < recent[-1][0]:
            # A straggler the merge released late: keep the window sorted.
            insort(recent, entry)
        else:
            recent.append(entry)
        self._per_shard[shard] = self._per_shard.get(shard, 0) + 1
        if now < self._suppress_until:
            return None
        shards = len(self._per_shard)
        if shards < self.min_shards:
            return None
        self._counter += 1
        self._suppress_until = now + self.window
        contributors = sorted({item_id for _ts, _shard, item_id in recent})
        correlated = EventRecord(
            event_id=f"corr-{self._counter}",
            item_id="*",
            event_type=CORRELATED_ALARM,
            severity=Severity.ALARM,
            value=shards,
            message=(
                f"alarms on {shards} shards within {self.window:g}s: "
                + ", ".join(contributors)
            ),
            timestamp=now,
        )
        self.correlated.append(correlated)
        if self.sink is not None:
            self.sink(correlated)
        return correlated

    def _forget(self, shard: int) -> None:
        count = self._per_shard[shard] - 1
        if count:
            self._per_shard[shard] = count
        else:
            del self._per_shard[shard]
