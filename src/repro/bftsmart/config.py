"""Static configuration of a replica group.

Mirrors BFT-SMaRt's ``system.config``: group size ``n`` tolerating ``f``
Byzantine replicas (``n >= 3f + 1``), batching bounds, timeouts and the
checkpoint period.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def replica_address(index: int) -> str:
    """Canonical network address of replica ``index``."""
    return f"replica-{index}"


@dataclass(frozen=True)
class GroupConfig:
    """Parameters shared by every member of one replication group.

    Attributes
    ----------
    n, f:
        Group size and fault threshold; ``n >= 3f + 1`` is enforced.
    batch_max:
        Maximum requests the leader packs into one PROPOSE.
    batch_wait:
        How long the leader waits to fill a batch before proposing what it
        has (seconds; 0 proposes immediately when idle).
    pipeline_depth:
        Maximum consensus instances the leader keeps in flight at once
        (BFT-SMaRt's consensus pipelining). 1 reproduces strictly
        sequential Mod-SMaRt: the leader idles for a full
        PROPOSE/WRITE/ACCEPT round-trip between batches. Depths > 1 let
        instance ``cid+1..cid+depth-1`` start while ``cid`` is still
        deciding; every replica buffers out-of-order decisions and
        releases them strictly in cid order, so execution (and the
        deterministic timestamps of §IV-C) is unchanged.
    request_timeout:
        Age at which an undecided client request makes a replica suspect
        the leader and start the synchronization phase.
    sync_timeout:
        How long a replica waits for a started synchronization phase to
        finish before escalating to the next regency.
    checkpoint_interval:
        Number of decided consensus instances between service snapshots.
    state_retry_interval:
        Minimum time between two state-transfer requests (seconds);
        previously the ``StateTransfer.RETRY_INTERVAL`` class constant.

    Quorum sizes are not configuration: they follow from the live
    membership, so they are properties of :class:`~repro.bftsmart.view.View`
    and move with every reconfiguration.
    """

    n: int = 4
    f: int = 1
    batch_max: int = 400
    batch_wait: float = 0.002
    pipeline_depth: int = 4
    request_timeout: float = 2.0
    sync_timeout: float = 4.0
    checkpoint_interval: int = 200
    state_retry_interval: float = 0.5
    addresses: tuple = field(default=())

    def __post_init__(self) -> None:
        if self.f < 0:
            raise ValueError("f must be non-negative")
        if self.n <= 3 * self.f:
            raise ValueError(f"n={self.n} violates n >= 3f+1 for f={self.f}")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.pipeline_depth < 1:
            raise ValueError("pipeline_depth must be >= 1")
        if self.batch_wait < 0:
            raise ValueError("batch_wait must be non-negative")
        if self.request_timeout <= 0 or self.sync_timeout <= 0:
            raise ValueError("request_timeout and sync_timeout must be positive")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.state_retry_interval <= 0:
            raise ValueError("state_retry_interval must be positive")
        if not self.addresses:
            object.__setattr__(
                self, "addresses", tuple(replica_address(i) for i in range(self.n))
            )
        if len(self.addresses) != self.n:
            raise ValueError("addresses must list exactly n replicas")
