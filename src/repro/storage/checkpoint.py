"""Durable checkpoint store with atomic-rename install.

A checkpoint is the executor's ``snapshot_blob()`` (service snapshot +
dedup table) framed with its digest. Installation follows the classic
crash-safe sequence:

1. write ``checkpoint-<cid>.tmp``
2. **fsync** — the bytes are durable under the temp name
3. rename to ``checkpoint-<cid>`` — atomic visibility flip
4. **fsync** — the rename (metadata) is durable
5. prune checkpoints beyond the retention bound

A crash between any two steps leaves either the old checkpoint set or
the old set plus a complete new checkpoint — never a half-written one
under a live name. ``load_newest`` verifies the digest frame and walks
backwards through retained generations, so one silently-corrupted
checkpoint degrades to the previous one rather than to garbage.
"""

from __future__ import annotations

from repro.crypto import digest
from repro.wire import DecodeError, decode, encode

_PREFIX = "checkpoint-"
#: Durable checkpoint generations kept on disk.
CHECKPOINT_RETENTION = 2


def _blob_name(cid: int) -> str:
    # Zero-pad so lexicographic blob ordering matches numeric cid order.
    return f"{_PREFIX}{cid:012d}"


class CheckpointStore:
    """Persists checkpoint snapshots; survives crashes whole or not at all."""

    def __init__(self, disk, retention: int = CHECKPOINT_RETENTION):
        if retention < 1:
            raise ValueError("checkpoint retention must be >= 1")
        self.disk = disk
        self.retention = retention
        self.installs = 0

    def install(self, cid: int, snapshot_blob: bytes) -> None:
        framed = encode((cid, snapshot_blob, digest(snapshot_blob)))
        tmp = _blob_name(cid) + ".tmp"
        self.disk.put_blob(tmp, framed)
        self.disk.fsync()
        self.disk.rename_blob(tmp, _blob_name(cid))
        self.disk.fsync()
        self.installs += 1
        self._prune()

    def load_newest(self):
        """Newest checkpoint that passes verification.

        Returns ``(cid, snapshot_blob)`` or ``None``. Corrupt or
        incomplete candidates (including orphaned ``.tmp`` files from a
        mid-install crash) are skipped, falling back generation by
        generation.
        """
        names = [
            name
            for name in self.disk.blob_names()
            if name.startswith(_PREFIX) and not name.endswith(".tmp")
        ]
        for name in sorted(names, reverse=True):
            raw = self.disk.read_blob(name)
            if raw is None:
                continue
            try:
                frame = decode(raw)
                if not (
                    isinstance(frame, tuple)
                    and len(frame) == 3
                    and isinstance(frame[0], int)
                    and isinstance(frame[1], bytes)
                    and digest(frame[1]) == frame[2]
                ):
                    raise DecodeError("not a checkpoint frame, or digest mismatch")
            except DecodeError:
                continue
            return frame[0], frame[1]
        return None

    def _prune(self) -> None:
        names = sorted(
            name
            for name in self.disk.blob_names()
            if name.startswith(_PREFIX) and not name.endswith(".tmp")
        )
        for name in names[: -self.retention]:
            self.disk.delete_blob(name)
        # Orphaned temp files are garbage from an interrupted install.
        for name in self.disk.blob_names():
            if name.endswith(".tmp"):
                self.disk.delete_blob(name)
