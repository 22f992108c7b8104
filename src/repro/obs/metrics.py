"""The unified metrics registry.

One :class:`MetricsRegistry` per :class:`~repro.sim.kernel.Simulator`
holds every named metric of a deployment. Four metric kinds cover what
the codebase measures today:

``counter``
    A monotonically increasing integer owned by the registry
    (``registry.counter(name).inc()``). Components hold the
    :class:`Counter` object, so the hot path is one attribute add.
``gauge``
    A zero-arg callable sampled at snapshot time. This is how the kernel
    exposes its own counters (``events_dispatched`` etc.) without
    duplicating state: the gauge reads the attribute the kernel already
    maintains.
``histogram``
    Fixed-bucket distribution with cumulative bucket counts.
``group``
    A zero-arg provider returning a dict — the compatibility kind behind
    ``Simulator.register_stats_source`` (pipeline occupancy, fault
    injector counts, workload recorders).

Names are dot-separated (``net.trace.hops``, ``wal.fsyncs``); the
snapshot is a flat ``{name: value_or_dict}`` mapping in registration
order, which keeps ``Simulator.stats()`` output shape-compatible with
what benchmarks and chaos monitors already consume.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Sequence


class Counter:
    """A registry-owned monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A named sample-on-read metric."""

    __slots__ = ("name", "read")

    def __init__(self, name: str, fn: Callable[[], object]) -> None:
        self.name = name
        self.read = fn

    def __repr__(self) -> str:
        return f"<Gauge {self.name}>"


#: Default histogram bucket bounds (seconds): micro to tens of seconds.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class Histogram:
    """Fixed-bucket histogram; bucket ``i`` counts samples ≤ ``bounds[i]``.

    The last (implicit) bucket is ``+inf``. Buckets are fixed at creation
    so two runs of the same workload produce comparable shapes.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(sorted(buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def quantile(self, q: float) -> float:
        """Interpolated estimate of the ``q`` quantile (0..1).

        An empty histogram returns ``nan``; ``q=0`` and ``q=1`` return
        the exact observed min/max. Interior quantiles interpolate
        linearly inside the bucket holding the target rank, with the
        bucket edges clamped to the observed min/max — so a histogram
        whose samples all land in one bucket degenerates to a min..max
        interpolation instead of snapping to a bucket bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return math.nan
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        target = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if seen + bucket_count >= target:
                lo = self.min if index == 0 else self.bounds[index - 1]
                hi = self.max if index == len(self.bounds) else self.bounds[index]
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                if hi < lo:
                    hi = lo
                return lo + (hi - lo) * (target - seen) / bucket_count
            seen += bucket_count
        return self.max

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.total / self.count if self.count else math.nan,
            "min": self.min if self.count else math.nan,
            "max": self.max if self.count else math.nan,
            "buckets": {
                ("+inf" if index == len(self.bounds) else self.bounds[index]): n
                for index, n in enumerate(self.counts)
            },
        }

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.count}>"


class MetricsRegistry:
    """Named metrics of one simulation, snapshot in registration order."""

    def __init__(self) -> None:
        #: name -> (kind, metric-or-provider); insertion ordered, which
        #: fixes the snapshot key order (kernel gauges first).
        self._entries: dict[str, tuple] = {}

    # -- registration ---------------------------------------------------

    def _claim(self, name: str, kind: str):
        entry = self._entries.get(name)
        if entry is not None and entry[0] != kind:
            raise ValueError(
                f"metric {name!r} already registered as {entry[0]}, not {kind}"
            )
        return entry

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        entry = self._claim(name, "counter")
        if entry is not None:
            return entry[1]
        counter = Counter(name)
        self._entries[name] = ("counter", counter)
        return counter

    def gauge(self, name: str, fn: Callable[[], object]) -> Gauge:
        """Register (or replace) the gauge ``name`` reading ``fn()``."""
        self._claim(name, "gauge")
        gauge = Gauge(name, fn)
        self._entries[name] = ("gauge", gauge)
        return gauge

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the histogram ``name`` (buckets fixed on creation)."""
        entry = self._claim(name, "histogram")
        if entry is not None:
            return entry[1]
        histogram = Histogram(name, buckets)
        self._entries[name] = ("histogram", histogram)
        return histogram

    def group(self, name: str, provider: Callable[[], dict]) -> None:
        """Register (or replace) a dict-valued provider under ``name``.

        This is the kind behind ``Simulator.register_stats_source``:
        re-registering a name replaces the provider, as subsystems that
        rebuild mid-run (rejuvenation) rely on.
        """
        self._claim(name, "group")
        self._entries[name] = ("group", provider)

    # -- reading --------------------------------------------------------

    def names(self) -> list:
        return list(self._entries)

    def value_of(self, name: str):
        """The current snapshot value of one metric."""
        entry = self._entries.get(name)
        if entry is None:
            raise KeyError(name)
        return self._read(entry)

    def read(self, name: str, default=None):
        """Like :meth:`value_of`, but returns ``default`` when absent.

        Passive consumers (the intrusion detector) poll metrics that may
        not be registered yet — e.g. a replica group during a restart
        gap — and must not raise from inside the monitor loop.
        """
        entry = self._entries.get(name)
        if entry is None:
            return default
        return self._read(entry)

    @staticmethod
    def _read(entry: tuple):
        kind, metric = entry
        if kind == "counter":
            return metric.value
        if kind == "gauge":
            return metric.read()
        if kind == "histogram":
            return metric.summary()
        return metric()  # group provider

    def snapshot(self) -> dict:
        """All metrics as ``{name: value_or_dict}`` in registration order."""
        return {name: self._read(entry) for name, entry in self._entries.items()}

    def reset(self) -> None:
        """Zero every counter and histogram (gauges/groups read live state)."""
        for kind, metric in self._entries.values():
            if kind == "counter":
                metric.reset()
            elif kind == "histogram":
                metric.counts = [0] * (len(metric.bounds) + 1)
                metric.count = 0
                metric.total = 0.0
                metric.min = math.inf
                metric.max = -math.inf

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self._entries)} metrics>"
