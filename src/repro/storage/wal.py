"""Write-ahead log of decided batches, digest-framed per record.

Every decision the replica executes is first appended here as
``encode((payload, digest(payload)))`` with
``payload = encode((cid, value, timestamp))`` — the same triple the
in-memory ``decision_log`` holds. The digest frame is what recovery
trusts: a torn or silently-corrupted record fails verification and the
damaged suffix is discarded (state past it is re-fetched from peers,
f+1-verified, so a lying disk can lose data but never forge it).

Three fsync policies trade durability lag for barrier count:

``every-decision``
    fsync after each append. Nothing decided is ever lost; one barrier
    per consensus instance.
``every-N``
    fsync after every ``interval`` appends. Bounded loss window of
    ``interval - 1`` decisions.
``checkpoint-only``
    never fsync on append; the log only becomes durable when the
    checkpoint install barriers. Cheapest, loses the whole tail.
"""

from __future__ import annotations

from repro.crypto import digest
from repro.wire import DecodeError, decode, encode, record, recorded, same_encoding

FSYNC_POLICIES = ("every-decision", "every-n", "checkpoint-only")
#: Appends between barriers under the ``every-n`` policy.
FSYNC_INTERVAL = 8

#: Record the first replica to log a decision keeps on the decision's
#: carrier (the slot's ``RequestBatch``, which every correct replica
#: holds), keyed by the value's bytes object: ``((cid, timestamp),
#: frame)``. A later replica appends that very frame to its own disk when
#: its own ``(cid, timestamp)`` passes :func:`~repro.wire.same_encoding`
#: against the record's, and builds (and records) its own otherwise.
FRAME = "_wal_frame_memo"


def wal_frame(cid: int, value: bytes, timestamp: float, carrier=None) -> bytes:
    """The log record of one decision: ``encode((payload, digest(payload)))``
    with ``payload = encode((cid, value, timestamp))``, taken from
    ``carrier``'s ``FRAME`` record when it encodes the same decision."""
    if carrier is not None:
        memo = recorded(carrier, FRAME, value)
        if memo is not None and same_encoding(memo[0], (cid, timestamp)):
            return memo[1]
    payload = encode((cid, value, timestamp))
    frame = encode((payload, digest(payload)))
    if carrier is not None:
        record(carrier, FRAME, ((cid, timestamp), frame), value)
    return frame


class WriteAheadLog:
    """Digest-framed append log of ``(cid, value, timestamp)`` records."""

    def __init__(
        self, disk, policy: str = "every-decision", interval: int = FSYNC_INTERVAL
    ):
        if policy not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {policy!r}; pick from {FSYNC_POLICIES}"
            )
        if interval < 1:
            raise ValueError("fsync interval must be >= 1")
        self.disk = disk
        self.policy = policy
        self.interval = interval
        #: cids of records currently in the on-disk log, append order —
        #: an in-memory mirror so truncation never has to re-read disk.
        self._cids: list[int] = []
        self._since_fsync = 0

    def append(self, cid: int, value: bytes, timestamp: float, carrier=None) -> bool:
        """Append one decision record; returns True when it fsynced.
        ``carrier`` is an object every replica logging this decision
        holds (see :func:`wal_frame`)."""
        self.disk.log_append(wal_frame(cid, value, timestamp, carrier))
        self._cids.append(cid)
        if self.policy == "every-decision":
            self.disk.fsync()
            self._since_fsync = 0
            return True
        if self.policy == "every-n":
            self._since_fsync += 1
            if self._since_fsync >= self.interval:
                self.disk.fsync()
                self._since_fsync = 0
                return True
        # checkpoint-only: the checkpoint install's barrier covers us.
        return False

    def truncate_through(self, cid: int) -> None:
        """Drop every record with cid ≤ ``cid`` (post-checkpoint prune)."""
        keep_from = 0
        while keep_from < len(self._cids) and self._cids[keep_from] <= cid:
            keep_from += 1
        if keep_from:
            self.disk.log_truncate(keep_from)
            del self._cids[:keep_from]

    def replay(self):
        """Read the log back after a restart.

        Returns ``(entries, damaged)`` where ``entries`` is the verified
        ``[(cid, value, timestamp), ...]`` prefix and ``damaged`` is True
        when a record failed its digest check (torn tail, bit flip). The
        damaged suffix is cut from the disk so future appends extend a
        clean log, and the cid mirror is rebuilt either way.
        """
        entries = []
        damaged = False
        records = self.disk.log_records()
        for raw in records:
            try:
                frame = decode(raw)
                if not (
                    isinstance(frame, tuple)
                    and len(frame) == 2
                    and isinstance(frame[0], bytes)
                    and digest(frame[0]) == frame[1]
                ):
                    raise DecodeError("not a WAL frame, or digest mismatch")
            except DecodeError:
                damaged = True
                break
            # The digest matched: the payload is the record as appended.
            cid, value, timestamp = decode(frame[0])
            entries.append((cid, value, timestamp))
        if damaged:
            self.disk.log_drop_tail(len(entries))
        self._cids = [cid for cid, _, _ in entries]
        self._since_fsync = 0
        return entries, damaged

    @property
    def tail_cids(self) -> list:
        return list(self._cids)
