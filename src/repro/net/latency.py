"""Link latency models.

The paper's testbed is a Gigabit Ethernet switch between Xeon servers; the
default :class:`LanLatency` models that: a propagation base, seeded jitter,
and a serialization term proportional to message size. Other models exist
for tests (constant) and for WAN-style experiments (uniform band).
"""

from __future__ import annotations

import random


class LatencyModel:
    """Computes the one-way delay for a message of ``size`` bytes."""

    def delay(self, size: int) -> float:
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Fixed delay regardless of size; the workhorse of deterministic tests."""

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise ValueError("latency cannot be negative")
        self._delay = delay

    def delay(self, size: int) -> float:
        return self._delay


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low, high]`` using a seeded stream."""

    def __init__(self, low: float, high: float, rng: random.Random) -> None:
        if not 0 <= low <= high:
            raise ValueError(f"invalid latency band [{low}, {high}]")
        self._low = low
        self._high = high
        self._rng = rng

    def delay(self, size: int) -> float:
        return self._rng.uniform(self._low, self._high)


class LanLatency(LatencyModel):
    """Switched-LAN model: base propagation + jitter + bandwidth term.

    Parameters
    ----------
    base:
        Fixed per-hop latency in seconds (kernel/NIC/switch traversal).
    jitter:
        Maximum additional random delay; drawn uniformly from ``[0, jitter]``.
    bandwidth:
        Link bandwidth in bytes/second used for the serialization delay.
    rng:
        Seeded random stream for the jitter term.
    """

    def __init__(
        self,
        base: float = 0.00015,
        jitter: float = 0.00005,
        bandwidth: float = 125_000_000.0,  # 1 Gbit/s
        rng: random.Random | None = None,
    ) -> None:
        if base < 0 or jitter < 0 or bandwidth <= 0:
            raise ValueError("invalid LAN latency parameters")
        self._base = base
        self._jitter = jitter
        self._bandwidth = bandwidth
        self._rng = rng

    def delay(self, size: int) -> float:
        jitter = 0.0
        if self._jitter and self._rng is not None:
            # ``uniform(0.0, j)`` spelled out: ``0.0 + (j - 0.0) * random()``
            # is exactly ``j * random()``, minus a Python frame per message.
            jitter = self._jitter * self._rng.random()
        return self._base + jitter + size / self._bandwidth
