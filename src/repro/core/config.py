"""Deployment configuration and cost calibration for SMaRt-SCADA.

One :class:`SmartScadaConfig` describes a whole deployment — group size,
protocol tunables and the calibrated cost models for both the original
NeoSCADA Master and the replicated one. The absolute numbers are fitted
so the benchmark suite lands in the neighbourhood of the paper's
Figure 8 (the *relative* results are what the reproduction claims);
EXPERIMENTS.md records paper-vs-measured for each point.

Group topology is configuration too: a :class:`ShardedScadaConfig` wraps
one per-group :class:`SmartScadaConfig` plus the shard count and derives
one :class:`~repro.bftsmart.config.GroupConfig` per shard, whose replica
addresses are namespaced ``s<k>-replica-<i>`` so the groups coexist on
one network. A one-shard deployment keeps the classic ``replica-<i>``
addresses: the paper's unsharded system *is* the 1-shard deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.bftsmart.config import GroupConfig, replica_address
from repro.neoscada.master import MasterCosts
from repro.shard.map import ShardMap
from repro.storage import FSYNC_POLICIES, ReplicaStorage

#: Per-hop LAN latency (switched Gigabit Ethernet, paper §V).
DEFAULT_HOP_LATENCY = 0.00025
#: Co-located component <-> proxy latency (loopback).
DEFAULT_LOCAL_LATENCY = 0.00002


def jitter_bound(hop_latency: float = DEFAULT_HOP_LATENCY) -> float:
    """Upper bound of the LAN model's per-message jitter.

    Two messages sent in the same instant over one FIFO link arrive less
    than this far apart, so it is also the longest a below-capacity
    leader can usefully hold a request back for a sibling to share its
    PROPOSE (docs/PROTOCOLS.md §2).
    """
    return hop_latency / 5


def neoscada_costs() -> MasterCosts:
    """Cost model of the original (multi-threaded) Master."""
    return MasterCosts(
        update_processing=0.00055,
        write_processing=0.00070,
        event_processing=0.00008,
        storage_service_time=0.0008,  # concurrent, batched event writer
        storage_buffer=64,
        serialization=0.0,
    )


def smartscada_costs() -> MasterCosts:
    """Cost model of the replicated (single-threaded) Master.

    ``serialization`` > 0 is the paper's §VII-b "message serialization
    bottleneck introduced to guarantee determinism"; writes marshal the
    full operation context through the single entry point, and event
    persistence is a synchronous single writer.
    """
    return MasterCosts(
        update_processing=0.00055,
        write_processing=0.00250,
        event_processing=0.00008,
        storage_service_time=0.001333,  # synchronous deterministic writer
        storage_buffer=8,
        serialization=0.00051,
    )


@dataclass(frozen=True)
class SmartScadaConfig:
    """Everything needed to build one SMaRt-SCADA deployment."""

    n: int = 4
    f: int = 1
    #: Mod-SMaRt tunables.
    batch_max: int = 200
    #: Below capacity the window only has to catch requests one client
    #: sent back-to-back; backpressure forms every other batch.
    batch_wait: float = jitter_bound()
    #: Consensus instances the leader keeps in flight (1 = the strictly
    #: sequential ordering the paper's evaluation ran with; raise it to
    #: overlap instances — see GroupConfig.pipeline_depth).
    pipeline_depth: int = 1
    request_timeout: float = 2.0
    sync_timeout: float = 4.0
    checkpoint_interval: int = 1000
    #: §IV-D logical timeout (seconds) and its vote majority.
    logical_timeout: float = 1.0
    #: BFT client retransmission timeout.
    invoke_timeout: float = 1.0
    #: Durable replica state (``repro.storage``): give every replica a
    #: crash-consistent WAL + checkpoint store so restarts recover from
    #: disk instead of paying for a full state transfer.
    durability: bool = False
    #: WAL fsync policy: ``every-decision`` / ``every-n`` / ``checkpoint-only``.
    fsync_policy: str = "every-decision"
    #: Minimum time between state-transfer requests (seconds).
    state_retry_interval: float = 0.5
    #: Master cost model for the replicas.
    costs: MasterCosts = field(default_factory=smartscada_costs)

    def __post_init__(self) -> None:
        if self.fsync_policy not in FSYNC_POLICIES:
            raise ValueError(f"unknown fsync policy {self.fsync_policy!r}")

    def group_config(self) -> GroupConfig:
        return GroupConfig(
            n=self.n,
            f=self.f,
            batch_max=self.batch_max,
            batch_wait=self.batch_wait,
            pipeline_depth=self.pipeline_depth,
            request_timeout=self.request_timeout,
            sync_timeout=self.sync_timeout,
            checkpoint_interval=self.checkpoint_interval,
            state_retry_interval=self.state_retry_interval,
        )

    def replica_storage(self, address: str):
        """A fresh durable device for the replica at ``address``."""
        return ReplicaStorage(address, fsync_policy=self.fsync_policy)

    @property
    def timeout_majority(self) -> int:
        """Majority of replicas, as the paper's §IV-D prescribes."""
        return self.n // 2 + 1


def shard_replica_address(shard: int, index: int, shards: int) -> str:
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
