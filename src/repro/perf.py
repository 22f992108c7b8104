"""Hot-path cache accounting.

The memos on the per-message path (the encode memo, the MAC/signature
records and sealer's message on each envelope and request, the message
each request and push carries as its body, the leader's batch on its
Propose, HMAC templates and the bounded content-keyed digest memo) are
*behaviour-invisible* and always on: with a fixed seed a run produces the encodings, digests and event
orders that the un-cached code produced before it was deleted
(``tests/golden``, ``tests/test_golden_outputs.py``). A memo lives on the
object it describes; a table that spans objects states its in-flight
bound. What stays process-wide is kept on :data:`PERF`: one hit/miss
counter per cache (a record hit counts as a hit), so a measured run can
report how effective each one was (``decode_share`` counts messages
taken from an envelope's or a body record), and the name of the event kernel for
the benchmark's run fingerprint. :func:`clear_hot_path_caches` gives a
measurement a cold start. This module imports nothing from ``repro``:
each table owner registers its ``clear_*`` function through
:meth:`PerfSwitches.on_clear` when it is imported.
"""

from __future__ import annotations


class CacheStats:
    """Hit/miss counters for one cache."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0

    def as_dict(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / total) if total else 0.0,
        }


class PerfSwitches:
    """The per-cache counters, the caches' clear functions, and the
    kernel's name (a constant)."""

    __slots__ = ("stats", "_clears")

    #: The event kernel every ``Simulator(...)`` is
    #: (``repro.sim.fastkernel``). Nothing selects on it; it is kept
    #: because ``bench/run.py`` records it in each run's fingerprint.
    kernel = "ring"

    def __init__(self) -> None:
        self.stats: dict[str, CacheStats] = {
            "codec_encode": CacheStats(),
            "digest": CacheStats(),
            "mac": CacheStats(),
            "decode_share": CacheStats(),
            "signing_payload": CacheStats(),
        }
        self._clears: list = []

    def on_clear(self, clear):
        """Register a cache owner's ``clear`` (a decorator; returns it)."""
        self._clears.append(clear)
        return clear

    def reset_stats(self) -> None:
        for stats in self.stats.values():
            stats.reset()

    def stats_map(self) -> dict:
        return {name: stats.as_dict() for name, stats in self.stats.items()}


#: Process-wide instance consulted by every cache owner.
PERF = PerfSwitches()


def clear_hot_path_caches() -> None:
    """Drop every memoized encoding/digest/decode and reset counters.

    A cache whose owner was never imported is empty already.
    """
    for clear in PERF._clears:
        clear()
    PERF.reset_stats()
