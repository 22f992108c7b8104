"""The item→shard partition and its resolve-once router cache.

A :class:`ShardMap` is *configuration*, not code ("Automatic Integration
of BFT State-Machine Replication into IoT Systems" treats group topology
exactly this way): it assigns every item id to one of ``shards`` groups
by a deterministic hash of the id, plus an overlay of per-item pins that
live shard splits install.

The map carries an ``epoch`` that bumps on every reassignment. Routers
(:class:`ShardRouter`) memoise item→shard lookups and validate only the
epoch on the hot path, so steady-state routing is one dict hit — no
hashing — and a split invalidates every cache in the deployment at once
by bumping the epoch.
"""

from __future__ import annotations

import zlib


def hash_shard(item_id: str, shards: int) -> int:
    """Deterministic item→shard hash (stable across processes and runs).

    ``zlib.crc32`` rather than ``hash()``: Python string hashing is
    randomized per process, and the partition must be identical on every
    replica, every proxy and every rerun of a seeded simulation.
    """
    return zlib.crc32(item_id.encode()) % shards


class ShardMap:
    """Assigns item ids to shard indices ``0..shards-1``."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = shards
        #: Per-item overrides installed by live splits (beats the hash).
        self.pins: dict[str, int] = {}
        #: Bumped on every reassignment; routers key their caches on it.
        self.epoch = 0

    def shard_of(self, item_id: str) -> int:
        """The shard that currently owns ``item_id`` (uncached)."""
        pinned = self.pins.get(item_id)
        if pinned is not None:
            return pinned
        return hash_shard(item_id, self.shards)

    def assign(self, item_ids, shard: int) -> None:
        """Pin ``item_ids`` to ``shard`` and invalidate every router.

        This is the commit point of a shard split: after the epoch bump,
        every cached route for the moved items (and only a map lookup
        for everything else) resolves against the new ownership.
        """
        if not 0 <= shard < self.shards:
            raise ValueError(f"no shard {shard} in a {self.shards}-shard map")
        for item_id in item_ids:
            self.pins[item_id] = shard
        self.epoch += 1

    def owned_by(self, shard: int, item_ids) -> list:
        """The subset of ``item_ids`` this map routes to ``shard``."""
        return [i for i in item_ids if self.shard_of(i) == shard]


class ShardRouter:
    """A resolve-once cache in front of one :class:`ShardMap`.

    Every proxy holds its own router. ``route()`` costs one dict lookup
    when the cache is warm; a map epoch bump (a split committed) drops
    the whole cache, so the next lookup per item re-resolves against the
    new ownership. ``stats`` counts hits/misses/invalidations so tests
    can assert the hot path really is cached.
    """

    __slots__ = ("map", "_cache", "_epoch", "stats")

    def __init__(self, shard_map: ShardMap) -> None:
        self.map = shard_map
        self._cache: dict[str, int] = {}
        self._epoch = shard_map.epoch
        self.stats = {"hits": 0, "misses": 0, "invalidations": 0}

    def route(self, item_id: str) -> int:
        """The shard owning ``item_id`` (cached)."""
        if self._epoch != self.map.epoch:
            self._cache.clear()
            self._epoch = self.map.epoch
            self.stats["invalidations"] += 1
        shard = self._cache.get(item_id)
        if shard is None:
            shard = self.map.shard_of(item_id)
            self._cache[item_id] = shard
            self.stats["misses"] += 1
        else:
            self.stats["hits"] += 1
        return shard
