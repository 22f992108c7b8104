"""Topology configuration for a sharded deployment.

Group topology is configuration, not code: a
:class:`ShardedScadaConfig` wraps one per-group
:class:`~repro.core.config.SmartScadaConfig` (every group gets the same
protocol tunables) plus the shard count, and derives one
:class:`~repro.bftsmart.config.GroupConfig` *per shard* whose
replica addresses are namespaced ``s<k>-replica-<i>`` so the groups
coexist on one network without address collisions.

Shard 0 of a one-shard deployment keeps the classic ``replica-<i>``
addresses: the paper's unsharded system *is* the 1-shard deployment
(:func:`repro.core.system.build_smartscada` builds exactly that).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.bftsmart.config import GroupConfig, replica_address
from repro.core.config import SmartScadaConfig
from repro.shard.map import ShardMap


def shard_replica_address(shard: int, index: int, shards: int = 2) -> str:
    """Network address of replica ``index`` of group ``shard``."""
    if shards <= 1:
        return replica_address(index)
    return f"s{shard}-{replica_address(index)}"


@dataclass(frozen=True)
class ShardedScadaConfig:
    """Everything needed to build one sharded SMaRt-SCADA deployment."""

    #: Number of independent BFT groups.
    shards: int = 2
    #: Per-group deployment config (n, f, pipeline, durability, ...).
    base: SmartScadaConfig = field(default_factory=SmartScadaConfig)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")

    def shard_map(self) -> ShardMap:
        return ShardMap(self.shards)

    def group_config(self, shard: int) -> GroupConfig:
        """The ``GroupConfig`` of group ``shard`` (namespaced addresses)."""
        base = self.base.group_config()
        if self.shards == 1:
            return base
        addresses = tuple(
            shard_replica_address(shard, i, self.shards)
            for i in range(self.base.n)
        )
        return replace(base, addresses=addresses)

    def group_configs(self) -> list:
        return [self.group_config(k) for k in range(self.shards)]

    #: Global replica index of ``(shard, local_index)`` — the flattened
    #: numbering ``SmartScadaSystem.proxy_masters`` uses.
    def global_index(self, shard: int, local_index: int) -> int:
        return shard * self.base.n + local_index

    def shard_of_index(self, global_index: int) -> int:
        return global_index // self.base.n
