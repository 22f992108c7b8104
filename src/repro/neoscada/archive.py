"""Historical data: NeoSCADA's value-archive subsystem, in miniature.

Eclipse NeoSCADA ships an HD (historical data) module that records item
values at multiple aggregation levels so operators can pull trends. This
module provides that: a :class:`ValueArchive` keeps, per item, a bounded
raw series plus downsampled levels (min/max/mean buckets), and a
:class:`TrendRecorder` wires an archive to a running HMI's value stream.

The archive is a *client-side* (HMI) concern here: recording what the
operator sees introduces no determinism questions for the replicated
Master.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.neoscada.values import DataValue

#: Bucket sizes (seconds) of the downsampled levels, smallest first.
RESOLUTIONS = (1.0, 10.0, 60.0)
#: Raw samples retained per item.
RAW_CAPACITY = 10_000
#: Buckets retained per item per downsampled level.
LEVEL_CAPACITY = 1_000


@dataclass
class TrendBucket:
    """One aggregation bucket of a downsampled series."""

    start: float
    count: int = 0
    minimum: float = float("inf")
    maximum: float = float("-inf")
    total: float = 0.0
    last: float = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        self.total += value
        self.last = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class _Level:
    """One downsampling level for one item."""

    def __init__(self, resolution: float, capacity: int) -> None:
        self.resolution = resolution
        self.capacity = capacity
        self.buckets: deque = deque()

    def record(self, timestamp: float, value: float) -> None:
        start = (timestamp // self.resolution) * self.resolution
        if not self.buckets or self.buckets[-1].start != start:
            if self.buckets and start < self.buckets[-1].start:
                return  # out-of-order stragglers are dropped
            self.buckets.append(TrendBucket(start=start))
            while len(self.buckets) > self.capacity:
                self.buckets.popleft()
        self.buckets[-1].add(value)

    def query(self, start: float, end: float) -> list:
        return [b for b in self.buckets if start <= b.start <= end]


class ValueArchive:
    """Bounded raw + downsampled storage of item value histories.

    An archive keeps the :data:`RESOLUTIONS` levels and the
    :data:`RAW_CAPACITY` raw samples per item that hold when it is built;
    every level retains :data:`LEVEL_CAPACITY` buckets per item.
    """

    def __init__(self) -> None:
        resolutions = tuple(RESOLUTIONS)
        if not resolutions or any(r <= 0 for r in resolutions):
            raise ValueError("resolutions must be positive")
        if list(resolutions) != sorted(resolutions):
            raise ValueError("resolutions must be ascending")
        self.resolutions = resolutions
        self.raw_capacity = RAW_CAPACITY
        self._raw: dict[str, deque] = {}
        self._levels: dict[str, dict] = {}
        self.samples_recorded = 0

    def items(self) -> list:
        return sorted(self._raw)

    def record(self, item_id: str, value: DataValue) -> None:
        """Record one sample (non-numeric or bad-quality values skipped)."""
        raw = value.value
        if not value.is_good or isinstance(raw, bool) or not isinstance(raw, (int, float)):
            return
        series = self._raw.get(item_id)
        if series is None:
            series = deque(maxlen=self.raw_capacity)
            self._raw[item_id] = series
            self._levels[item_id] = {
                resolution: _Level(resolution, LEVEL_CAPACITY)
                for resolution in self.resolutions
            }
        series.append((value.timestamp, float(raw)))
        self.samples_recorded += 1
        for level in self._levels[item_id].values():
            level.record(value.timestamp, float(raw))

    # -- queries --------------------------------------------------------------

    def raw(self, item_id: str, start: float = float("-inf"), end: float = float("inf")) -> list:
        """Raw ``(timestamp, value)`` samples in the window, oldest first."""
        series = self._raw.get(item_id, ())
        return [(t, v) for t, v in series if start <= t <= end]

    def trend(
        self,
        item_id: str,
        resolution: float,
        start: float = float("-inf"),
        end: float = float("inf"),
    ) -> list:
        """Downsampled :class:`TrendBucket` list for one level."""
        levels = self._levels.get(item_id)
        if levels is None:
            return []
        level = levels.get(resolution)
        if level is None:
            raise KeyError(f"no {resolution}s level (have {self.resolutions})")
        return level.query(start, end)

    def statistics(self, item_id: str) -> dict:
        """Whole-history min/max/mean/last over the raw series."""
        series = self._raw.get(item_id)
        if not series:
            return {"count": 0}
        values = [v for _t, v in series]
        return {
            "count": len(values),
            "min": min(values),
            "max": max(values),
            "mean": sum(values) / len(values),
            "last": values[-1],
        }


class TrendRecorder:
    """Feeds an HMI's live value stream into a :class:`ValueArchive`.

    Chains with any observer already installed on the HMI.
    """

    def __init__(self, hmi, archive: ValueArchive | None = None) -> None:
        self.hmi = hmi
        self.archive = archive if archive is not None else ValueArchive()
        self._downstream = hmi.on_value_change
        hmi.on_value_change = self._on_value

    def _on_value(self, item_id: str, value: DataValue) -> None:
        self.archive.record(item_id, value)
        if self._downstream is not None:
            self._downstream(item_id, value)

    def detach(self) -> None:
        self.hmi.on_value_change = self._downstream
