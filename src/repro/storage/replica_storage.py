"""``ReplicaStorage``: one replica's durable state, bundled.

This is the object the rest of the system talks to. It owns a
:class:`~repro.storage.disk.SimDisk` and layers the
:class:`~repro.storage.wal.WriteAheadLog` and
:class:`~repro.storage.checkpoint.CheckpointStore` on it, exposing
exactly the hooks ``ServiceReplica`` needs:

- :meth:`on_decided` — WAL-append each decision as it commits;
- :meth:`on_checkpoint` — persist the snapshot atomically, then
  truncate the WAL through the checkpointed cid;
- :meth:`reinstall` — re-seed the disk after a *full* state-transfer
  install (the durable state must track what the replica now holds,
  or the next restart would resurrect pre-install history);
- :meth:`recover` — the restart-from-disk read path, returning a
  :class:`RecoveredState` that says how far the disk gets us and
  whether anything was damaged along the way.

Storage objects deliberately outlive replica incarnations: a
``CrashRestart`` kills the process but the disk keeps its contents
(mutated by the crash fault model), and the next incarnation boots
from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.checkpoint import CheckpointStore
from repro.storage.disk import SimDisk
from repro.storage.wal import WriteAheadLog


@dataclass
class RecoveredState:
    """What :meth:`ReplicaStorage.recover` found on disk.

    ``checkpoint_cid`` is -1 and ``snapshot`` ``None`` when no valid
    checkpoint survived. ``entries`` is the verified, contiguous WAL
    tail strictly after the checkpoint — ``(cid, value, timestamp)``
    tuples ready for the execution path. ``damaged`` is True when any
    digest check failed (torn tail, bit flip), ``notes`` says what
    happened in human terms.
    """

    checkpoint_cid: int = -1
    snapshot: bytes | None = None
    entries: list = field(default_factory=list)
    damaged: bool = False
    notes: str = ""

    @property
    def last_cid(self) -> int:
        """Highest cid the disk can restore (checkpoint or WAL tail)."""
        if self.entries:
            return self.entries[-1][0]
        return self.checkpoint_cid


class ReplicaStorage:
    """Durable-state bundle for one replica address."""

    def __init__(self, address: str, fsync_policy: str = "every-decision") -> None:
        self.address = address
        self.disk = SimDisk(name=address)
        self.wal = WriteAheadLog(self.disk, policy=fsync_policy)
        self.checkpoints = CheckpointStore(self.disk)
        #: Replays served back to the replica at boot (metrics).
        self.bytes_replayed = 0
        self.recoveries = 0

    # -- replica-facing write path -----------------------------------------

    def on_decided(
        self, cid: int, value: bytes, timestamp: float, carrier=None
    ) -> bool:
        """WAL-append one decision; returns True when the append fsynced.
        The group's replicas share one frame through ``carrier`` (see
        :func:`repro.storage.wal.wal_frame`)."""
        return self.wal.append(cid, value, timestamp, carrier)

    def on_checkpoint(self, cid: int, snapshot_blob: bytes) -> None:
        self.checkpoints.install(cid, snapshot_blob)
        self.wal.truncate_through(cid)

    def reinstall(self, checkpoint_cid: int, snapshot_blob: bytes, log) -> None:
        """Re-seed the disk after a full state-transfer install.

        The installed snapshot becomes the durable checkpoint and the
        transferred log becomes the WAL tail (fsynced once as a unit —
        installs are rare, the barrier is cheap relative to the
        transfer itself).
        """
        self.checkpoints.install(checkpoint_cid, snapshot_blob)
        self.wal.truncate_through(float("inf"))
        for cid, value, timestamp in sorted(log, key=lambda e: e[0]):
            self.wal.append(cid, value, timestamp)
        if self.disk.dirty:
            self.disk.fsync()

    # -- restart read path --------------------------------------------------

    def recover(self) -> RecoveredState:
        """Read back the durable state after a restart."""
        self.recoveries += 1
        notes = []
        damaged = False

        newest = self.checkpoints.load_newest()
        if newest is None:
            checkpoint_cid, snapshot = -1, None
            if any(
                name.startswith("checkpoint-") for name in self.disk.blob_names()
            ):
                damaged = True
                notes.append("all checkpoints failed verification")
            else:
                notes.append("no checkpoint on disk")
        else:
            checkpoint_cid, snapshot = newest
            notes.append(f"checkpoint cid={checkpoint_cid}")
            self.bytes_replayed += len(snapshot)

        entries, wal_damaged = self.wal.replay()
        if wal_damaged:
            damaged = True
            notes.append("WAL tail failed digest verification, truncated")

        # Keep only the contiguous run strictly after the checkpoint: a
        # gap means the entries past it belong to a history the surviving
        # checkpoint cannot anchor (e.g. the newest checkpoint was
        # corrupt and we fell back a generation).
        tail = []
        expected = checkpoint_cid + 1
        for entry in entries:
            cid = entry[0]
            if cid < expected:
                continue  # already covered by the checkpoint
            if cid > expected:
                damaged = True
                notes.append(f"WAL gap at cid={expected}, tail dropped")
                break
            tail.append(entry)
            expected += 1
        if tail:
            self.bytes_replayed += sum(len(value) for _, value, _ in tail)
            notes.append(f"WAL tail through cid={tail[-1][0]}")

        return RecoveredState(
            checkpoint_cid=checkpoint_cid,
            snapshot=snapshot,
            entries=tail,
            damaged=damaged,
            notes="; ".join(notes),
        )

    # -- crash / metrics -----------------------------------------------------

    def crash(self, mode: str = "intact") -> None:
        self.disk.crash(mode)

    def counters(self) -> dict:
        stats = self.disk.counters()
        stats["bytes_replayed"] = self.bytes_replayed
        stats["recoveries"] = self.recoveries
        stats["checkpoint_installs"] = self.checkpoints.installs
        return stats
