"""Unit tests for the item->shard partition and router cache
(:mod:`repro.shard.map`) plus the sharded configuration's index and
address arithmetic (:mod:`repro.core.config`)."""

import dataclasses
import zlib

import pytest

from repro.bftsmart.config import GroupConfig
from repro.core.config import ShardedScadaConfig, SmartScadaConfig, shard_replica_address
from repro.shard import ShardMap, ShardRouter, hash_shard


# -- hash partition -------------------------------------------------------


def test_hash_shard_is_stable_and_in_range():
    for shards in (1, 2, 4, 7):
        for i in range(50):
            item = f"plant.sensor-{i}"
            shard = hash_shard(item, shards)
            assert 0 <= shard < shards
            # Same answer on every call: the partition is pure.
            assert hash_shard(item, shards) == shard


def test_hash_shard_is_crc32_not_process_randomized_hash():
    # Python's str hash is salted per process; the partition must be the
    # same on every replica and every rerun.
    assert hash_shard("plant.valve", 4) == zlib.crc32(b"plant.valve") % 4


def test_hash_partition_actually_spreads_items():
    shards_hit = {hash_shard(f"plant.sensor-{i}", 4) for i in range(100)}
    assert shards_hit == {0, 1, 2, 3}


# -- ShardMap -------------------------------------------------------------


def test_hash_map_matches_hash_shard():
    shard_map = ShardMap(shards=4)
    for i in range(20):
        item = f"item-{i}"
        assert shard_map.shard_of(item) == hash_shard(item, 4)


def test_pins_beat_the_hash():
    shard_map = ShardMap(shards=3)
    pinned, other = "plant.turbine.rpm", "plant.feedwater.flow"
    target = (hash_shard(pinned, 3) + 1) % 3
    shard_map.assign([pinned], target)
    assert shard_map.shard_of(pinned) == target
    # Everything else still follows the hash.
    assert shard_map.shard_of(other) == hash_shard(other, 3)


def test_assign_bumps_the_epoch_once_per_call():
    shard_map = ShardMap(shards=2)
    assert shard_map.epoch == 0
    shard_map.assign(["a", "b", "c"], 1)
    assert shard_map.epoch == 1
    assert all(shard_map.shard_of(i) == 1 for i in ("a", "b", "c"))


def test_owned_by_partitions_an_item_set():
    shard_map = ShardMap(shards=2)
    items = [f"item-{i}" for i in range(20)]
    owned = [shard_map.owned_by(s, items) for s in range(2)]
    assert sorted(owned[0] + owned[1]) == sorted(items)
    assert not set(owned[0]) & set(owned[1])


def test_map_validation():
    with pytest.raises(ValueError):
        ShardMap(shards=0)
    with pytest.raises(TypeError):
        ShardMap(shards=2, kind="range")  # hash + split pins only
    shard_map = ShardMap(shards=2)
    with pytest.raises(ValueError):
        shard_map.assign(["x"], 2)


# -- ShardRouter (resolve-once cache) -------------------------------------


def test_router_caches_after_first_resolution():
    router = ShardRouter(ShardMap(shards=4))
    first = router.route("plant.valve")
    for _ in range(9):
        assert router.route("plant.valve") == first
    assert router.stats == {"hits": 9, "misses": 1, "invalidations": 0}


def test_epoch_bump_invalidates_the_whole_cache():
    shard_map = ShardMap(shards=2)
    router = ShardRouter(shard_map)
    item = "plant.valve"
    before = router.route(item)
    shard_map.assign([item], 1 - before)
    # The next lookup drops the cache and re-resolves to the new owner.
    assert router.route(item) == 1 - before
    assert router.stats["invalidations"] == 1
    assert router.stats["misses"] == 2


def test_independent_routers_share_the_map_epoch():
    shard_map = ShardMap(shards=2)
    routers = [ShardRouter(shard_map) for _ in range(3)]
    for r in routers:
        r.route("item-a")
    shard_map.assign(["item-a"], 0)
    for r in routers:
        r.route("item-a")
        assert r.stats["invalidations"] == 1


# -- sharded configuration arithmetic -------------------------------------


def test_global_index_round_trips():
    config = ShardedScadaConfig(shards=4)
    n = config.base.n
    for shard in range(4):
        for local in range(n):
            gi = config.global_index(shard, local)
            assert gi == shard * n + local
            assert config.shard_of_index(gi) == shard


def test_single_shard_addresses_match_the_classic_deployment():
    config = ShardedScadaConfig(shards=1)
    classic = GroupConfig(n=config.base.n, f=config.base.f)
    assert config.group_config(0).addresses == classic.addresses
    assert shard_replica_address(0, 2, shards=1) == "replica-2"
    # No default count: forgetting it must not silently namespace a
    # one-group deployment's addresses.
    with pytest.raises(TypeError):
        shard_replica_address(0, 2)


def test_multi_shard_addresses_are_namespaced_and_disjoint():
    config = ShardedScadaConfig(shards=2)
    groups = config.group_configs()
    assert groups[0].addresses[0] == "s0-replica-0"
    assert groups[1].addresses[0] == "s1-replica-0"
    assert not set(groups[0].addresses) & set(groups[1].addresses)


def test_every_group_config_field_reaches_every_shard():
    """A per-group tunable must never be silently dropped on the way into
    a sharded group: walk ``GroupConfig``'s own field list, so a field
    added later is covered the day it is added."""
    non_default = {"n": 7, "f": 2}
    for spec in dataclasses.fields(GroupConfig):
        if spec.name != "addresses" and spec.name not in non_default:
            non_default[spec.name] = spec.default * 2 + 1
    tuned = GroupConfig(**non_default)
    assert all(
        getattr(tuned, spec.name) != spec.default
        for spec in dataclasses.fields(GroupConfig)
    )

    class Base(SmartScadaConfig):
        def group_config(self):
            return tuned

    for shards in (1, 3):
        groups = ShardedScadaConfig(shards=shards, base=Base(n=7, f=2)).group_configs()
        assert len(groups) == shards
        for shard, group in enumerate(groups):
            for name, value in non_default.items():
                assert getattr(group, name) == value, (shard, name)
            assert len(set(group.addresses)) == 7
