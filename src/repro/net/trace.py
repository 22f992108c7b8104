"""Network tracing: every delivered hop can be recorded and queried.

The paper explains its overheads by counting communication steps
(ItemUpdate: 3 steps in NeoSCADA vs 9 in SMaRt-SCADA; WriteValue gains 10
steps). The trace makes those step counts measurable facts of a run rather
than claims: benchmarks replay a single operation and count hops.

``recorded`` counts the hops — it is also exported through the metrics
registry when the network binds a counter
(:meth:`NetworkTrace.bind_counter`).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Hop:
    """One network traversal of one message."""

    seq: int
    src: str
    dst: str
    kind: str
    size: int
    sent_at: float
    delivered_at: float


class NetworkTrace:
    """Accumulates :class:`Hop` records for a run."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.hops: list = []
        self._seq = 0
        #: Optional :class:`repro.obs.metrics.Counter` mirror of hop count.
        self._counter = None

    @property
    def recorded(self) -> int:
        """Total hops recorded since the last :meth:`clear`."""
        return self._seq

    def bind_counter(self, counter) -> None:
        """Mirror every recorded hop into a metrics-registry counter."""
        self._counter = counter

    def record(
        self, src: str, dst: str, kind: str, size: int, sent_at: float, delivered_at: float
    ) -> None:
        if not self.enabled:
            return
        self._seq += 1
        if self._counter is not None:
            self._counter.inc()
        self.hops.append(
            Hop(
                seq=self._seq,
                src=src,
                dst=dst,
                kind=kind,
                size=size,
                sent_at=sent_at,
                delivered_at=delivered_at,
            )
        )

    def clear(self) -> None:
        """Forget every hop and restart ``seq`` numbering from 1."""
        self.hops.clear()
        self._seq = 0

    def count(self, kind: str | None = None, src: str | None = None, dst: str | None = None) -> int:
        """Number of hops matching the given filters (None = any)."""
        return sum(1 for hop in self.hops if self._matches(hop, kind, src, dst))

    def kinds(self) -> dict:
        """Histogram of hop counts by message kind."""
        histogram: dict[str, int] = {}
        for hop in self.hops:
            histogram[hop.kind] = histogram.get(hop.kind, 0) + 1
        return histogram

    def path(self, kind: str | None = None) -> list:
        """The (src, dst) pairs of matching hops, in delivery order."""
        return [
            (hop.src, hop.dst)
            for hop in self.hops
            if kind is None or hop.kind == kind
        ]

    @staticmethod
    def _matches(hop: Hop, kind, src, dst) -> bool:
        if kind is not None and hop.kind != kind:
            return False
        if src is not None and hop.src != src:
            return False
        if dst is not None and hop.dst != dst:
            return False
        return True
