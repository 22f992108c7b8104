"""Hot-path cache accounting.

The caches on the per-message path (codec memoization, HMAC templates
and tag memo, digest LRU, serialize-once broadcast with precomputed
envelope sizes, shared decode of multicast payloads, signing-payload
memo) are *behaviour-invisible* and always on: with a fixed seed a run
produces the encodings, digests and event orders that the un-cached code
produced before it was deleted (``tests/golden``,
``tests/test_golden_outputs.py``). What stays process-wide is kept on
:data:`PERF`: one hit/miss counter per cache, so a measured run can
report how effective each one was, and the name of the event kernel for
the benchmark's run fingerprint. :func:`clear_hot_path_caches` gives a
measurement a cold start.
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
    """The per-cache counters (and the kernel's name, a constant)."""

    __slots__ = ("stats",)

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

    def reset_stats(self) -> None:
        for stats in self.stats.values():
            stats.reset()

    def stats_map(self) -> dict:
        return {name: stats.as_dict() for name, stats in self.stats.items()}


#: Process-wide instance consulted by every cache owner.
PERF = PerfSwitches()


def clear_hot_path_caches() -> None:
    """Drop every memoized encoding/digest/decode and reset counters."""
    # Imported lazily: the cache owners import this module for PERF.
    from repro.bftsmart.channel import clear_decode_cache
    from repro.bftsmart.replica import clear_signing_payload_cache
    from repro.crypto.digest import clear_digest_cache
    from repro.crypto.mac import clear_mac_cache
    from repro.crypto.signatures import clear_signature_cache
    from repro.wire.codec import clear_encode_cache

    clear_encode_cache()
    clear_digest_cache()
    clear_mac_cache()
    clear_signature_cache()
    clear_decode_cache()
    clear_signing_payload_cache()
    PERF.reset_stats()
