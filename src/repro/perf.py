"""Hot-path optimisation switches and cache accounting.

The caching layers introduced by the performance pass (codec memoization,
HMAC templates, digest LRU, serialize-once broadcast with precomputed
envelope sizes, shared decode of multicast payloads) are all
*behaviour-invisible*: with a fixed seed, a run produces byte-identical
encodings, digests and event orders whether they are on or off. This
module is the single place that can disable them, which is what the
wall-clock profiler (:mod:`repro.workloads.profiler`) uses to measure the
un-optimised baseline and the optimised pipeline inside one process.

Each switch also carries hit/miss counters so ``BENCH_PERF.json`` can
report how effective every cache was during a measured run.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


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
    """Global on/off switches for every hot-path optimisation.

    All switches default to on. ``set_all(False)`` restores the
    un-optimised code paths (fresh encodes per receiver, per-message key
    schedules, per-send envelope sizing encodes, per-receiver decodes).
    """

    __slots__ = (
        "codec_cache",
        "mac_templates",
        "mac_memo",
        "digest_cache",
        "serialize_once",
        "size_hints",
        "decode_share",
        "signing_cache",
        "fast_delivery",
        "codec_scratch",
        "kernel",
        "stats",
    )

    def __init__(self) -> None:
        self.codec_cache = True
        self.mac_templates = True
        self.mac_memo = True
        self.digest_cache = True
        self.serialize_once = True
        self.size_hints = True
        self.decode_share = True
        self.signing_cache = True
        self.fast_delivery = True
        self.codec_scratch = True
        #: Which event-kernel implementation ``Simulator(...)`` builds:
        #: ``"ring"`` (the flat-array timer-wheel kernel,
        #: ``repro.sim.fastkernel`` — the default, it is cheaper on every
        #: benchmark workload; see docs/PERFORMANCE.md) or ``"heap"`` (the
        #: reference binary-heap kernel the parity suites compare against).
        #: Seeded from ``REPRO_KERNEL`` so a whole test run can be
        #: switched from the environment (the CI kernel-parity job).
        #: Deliberately *not* part of ``set_all``/``enabled_map``: it
        #: selects an implementation, it is not an on/off cache, and the
        #: baseline-vs-optimised profiler toggling must not swap kernels
        #: mid-comparison.
        self.kernel = os.environ.get("REPRO_KERNEL", "ring")
        self.stats: dict[str, CacheStats] = {
            "codec_encode": CacheStats(),
            "digest": CacheStats(),
            "mac": CacheStats(),
            "decode_share": CacheStats(),
            "signing_payload": CacheStats(),
        }

    def set_all(self, enabled: bool) -> None:
        self.codec_cache = enabled
        self.mac_templates = enabled
        self.mac_memo = enabled
        self.digest_cache = enabled
        self.serialize_once = enabled
        self.size_hints = enabled
        self.decode_share = enabled
        self.signing_cache = enabled
        self.fast_delivery = enabled
        self.codec_scratch = enabled

    def enabled_map(self) -> dict:
        return {
            "codec_cache": self.codec_cache,
            "mac_templates": self.mac_templates,
            "mac_memo": self.mac_memo,
            "digest_cache": self.digest_cache,
            "serialize_once": self.serialize_once,
            "size_hints": self.size_hints,
            "decode_share": self.decode_share,
            "signing_cache": self.signing_cache,
            "fast_delivery": self.fast_delivery,
            "codec_scratch": self.codec_scratch,
        }

    def reset_stats(self) -> None:
        for stats in self.stats.values():
            stats.reset()

    def stats_map(self) -> dict:
        return {name: stats.as_dict() for name, stats in self.stats.items()}


#: Process-wide switch instance consulted by every optimised hot path.
PERF = PerfSwitches()


def set_hot_path_optimizations(enabled: bool) -> None:
    """Turn every hot-path optimisation on or off, and clear the caches.

    Clearing on every transition keeps measurements honest: an
    "optimised" run starts cold and pays its own cache fills.
    """
    PERF.set_all(enabled)
    clear_hot_path_caches()


def clear_hot_path_caches() -> None:
    """Drop every memoized encoding/digest/decode and reset counters."""
    # Imported lazily: the cache owners import this module for PERF.
    from repro.crypto.digest import clear_digest_cache
    from repro.crypto.mac import clear_mac_cache
    from repro.crypto.signatures import clear_signature_cache
    from repro.wire.codec import clear_encode_cache

    clear_encode_cache()
    clear_digest_cache()
    clear_mac_cache()
    clear_signature_cache()
    try:
        from repro.bftsmart import channel as channel_mod

        channel_mod.clear_decode_cache()
    except ImportError:  # pragma: no cover - bftsmart always present
        pass
    try:
        from repro.bftsmart import replica as replica_mod

        replica_mod.clear_signing_payload_cache()
    except ImportError:  # pragma: no cover
        pass
    PERF.reset_stats()


@contextmanager
def hot_path_optimizations(enabled: bool):
    """Context manager toggling every switch, restoring the previous state."""
    previous = PERF.enabled_map()
    set_hot_path_optimizations(enabled)
    try:
        yield PERF
    finally:
        for name, value in previous.items():
            setattr(PERF, name, value)
        clear_hot_path_caches()
