"""``SimDisk``: a per-replica durable device with honest crash semantics.

The disk distinguishes **written** from **durable** state the way a real
OS does: appends and blob writes land in a volatile cache and only
become crash-proof at an :meth:`SimDisk.fsync` barrier. At crash time
(:meth:`SimDisk.crash`) the volatile cache is always lost, and one of
four fault models is applied to what the device claims it persisted:

``intact``
    Everything fsynced survives; everything volatile is gone. The
    ordinary power-cut.
``torn``
    A tail write was in flight: the record being appended is persisted
    *partially* (its first half), modelling a torn sector write that the
    drive acknowledged anyway. With no in-flight write the newest
    durable record is torn instead (a lying write cache).
``corrupt``
    Silent media corruption: one bit of the newest durable record (or,
    with an empty log, of the newest blob) flips. The disk reports
    success on read — only content digests can catch this.
``wiped``
    Total loss (reprovisioned machine, destroyed volume). Recovery must
    behave exactly like a from-scratch rejuvenation.

Timing is *accounted*, not injected: the device keeps its own busy-time
ledger (``WRITE_LATENCY_PER_KB`` plus ``FSYNC_LATENCY`` per barrier)
instead of scheduling events on the simulation heap, so enabling
durability — under any fsync policy — never perturbs the protocol event
order. That is what keeps chaos campaigns bit-deterministic with the
storage tier on.

All mutations are deterministic: the fault models use fixed structural
rules (tear the tail in half, flip the middle bit), never randomness.
"""

from __future__ import annotations

#: Recognised crash-time fault models.
CRASH_MODES = ("intact", "torn", "corrupt", "wiped")

#: Accounted device time (seconds) per KiB made durable by a barrier.
WRITE_LATENCY_PER_KB = 0.00005
#: Accounted device time (seconds) of one fsync barrier.
FSYNC_LATENCY = 0.0005


class SimDisk:
    """One simulated durable device (an append log plus a blob store)."""

    def __init__(self, name: str) -> None:
        self.name = name

        #: Durable (fsynced) append-log records, in append order.
        self._log: list[bytes] = []
        #: Appended but not yet fsynced records.
        self._log_volatile: list[bytes] = []
        #: Durable named blobs.
        self._blobs: dict[str, bytes] = {}
        #: Written but not yet fsynced blobs.
        self._blobs_volatile: dict[str, bytes] = {}
        #: Renames performed but not yet fsynced: (src, dst) in order.
        self._renames_volatile: list[tuple] = []

        # -- counters (surfaced through Simulator.stats) --
        self.fsyncs = 0
        self.appends = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.busy_time = 0.0
        self.crashes = 0

    # ------------------------------------------------------------------
    # append log
    # ------------------------------------------------------------------

    def log_append(self, record: bytes) -> None:
        """Append one record; volatile until the next fsync barrier."""
        self._log_volatile.append(bytes(record))
        self.appends += 1

    def log_records(self) -> list:
        """All records a reader would see right now (durable + cached)."""
        return list(self._log) + list(self._log_volatile)

    def log_truncate(self, count: int) -> None:
        """Drop the first ``count`` records (checkpoint truncation).

        Modelled as segment deletion: metadata-only, no write charge.
        Truncation may reach into the volatile tail (a truncated record
        that was never fsynced simply never existed).
        """
        if count <= 0:
            return
        durable = min(count, len(self._log))
        del self._log[:durable]
        remaining = count - durable
        if remaining:
            del self._log_volatile[:remaining]

    def log_drop_tail(self, keep: int) -> None:
        """Discard every record past the first ``keep`` (WAL repair).

        Used by recovery after a torn/corrupt tail was detected: the
        damaged suffix is cut so later appends extend a clean prefix.
        """
        total = len(self._log) + len(self._log_volatile)
        if keep >= total:
            return
        if keep <= len(self._log):
            del self._log[keep:]
            self._log_volatile.clear()
        else:
            del self._log_volatile[keep - len(self._log):]

    # ------------------------------------------------------------------
    # blob store
    # ------------------------------------------------------------------

    def put_blob(self, name: str, data: bytes) -> None:
        """Write (or overwrite) a named blob; volatile until fsync."""
        self._blobs_volatile[name] = bytes(data)

    def rename_blob(self, src: str, dst: str) -> None:
        """Atomically rename ``src`` to ``dst`` (the install primitive).

        The rename is atomic but — like POSIX ``rename()`` — only
        crash-proof after the next fsync barrier. The source must be
        durable: renaming un-fsynced data is the classic
        torn-install bug this store exists to avoid.
        """
        if src not in self._blobs:
            raise ValueError(
                f"rename of non-durable blob {src!r}: fsync before installing"
            )
        self._renames_volatile.append((src, dst))

    def read_blob(self, name: str):
        """The blob's current durable-or-cached content, or ``None``."""
        data = self._blobs_volatile.get(name)
        if data is None:
            data = self._effective_blobs().get(name)
        if data is not None:
            self.bytes_read += len(data)
        return data

    def blob_names(self) -> list:
        """All visible blob names, sorted (durable view plus cache)."""
        names = set(self._effective_blobs()) | set(self._blobs_volatile)
        return sorted(names)

    def delete_blob(self, name: str) -> None:
        """Remove a blob (retention pruning); metadata-only."""
        self._blobs_volatile.pop(name, None)
        self._blobs.pop(name, None)
        self._renames_volatile = [
            (src, dst) for src, dst in self._renames_volatile if dst != name
        ]

    def _effective_blobs(self) -> dict:
        """Durable blobs with pending renames applied (the live view)."""
        view = dict(self._blobs)
        for src, dst in self._renames_volatile:
            if src in view:
                view[dst] = view.pop(src)
        return view

    # ------------------------------------------------------------------
    # the barrier
    # ------------------------------------------------------------------

    def fsync(self) -> None:
        """Commit every cached write and rename; charge the barrier cost."""
        volume = sum(len(r) for r in self._log_volatile)
        volume += sum(len(b) for b in self._blobs_volatile.values())
        self._log.extend(self._log_volatile)
        self._log_volatile.clear()
        self._blobs.update(self._blobs_volatile)
        self._blobs_volatile.clear()
        for src, dst in self._renames_volatile:
            if src in self._blobs:
                self._blobs[dst] = self._blobs.pop(src)
        self._renames_volatile.clear()
        self.fsyncs += 1
        self.bytes_written += volume
        self.busy_time += FSYNC_LATENCY + (volume / 1024.0) * WRITE_LATENCY_PER_KB

    @property
    def dirty(self) -> bool:
        """True when un-fsynced state would be lost by a crash."""
        return bool(
            self._log_volatile or self._blobs_volatile or self._renames_volatile
        )

    # ------------------------------------------------------------------
    # crash-time fault models
    # ------------------------------------------------------------------

    def crash(self, mode: str = "intact") -> None:
        """Power-cut the device, applying one of :data:`CRASH_MODES`."""
        if mode not in CRASH_MODES:
            raise ValueError(
                f"unknown crash mode {mode!r}; pick from {CRASH_MODES}"
            )
        self.crashes += 1
        if mode == "wiped":
            self._log.clear()
            self._log_volatile.clear()
            self._blobs.clear()
            self._blobs_volatile.clear()
            self._renames_volatile.clear()
            return
        in_flight = self._log_volatile[0] if self._log_volatile else None
        # The volatile cache never survives.
        self._log_volatile.clear()
        self._blobs_volatile.clear()
        self._renames_volatile.clear()
        if mode == "torn":
            if in_flight is not None and len(in_flight) > 1:
                # The in-flight append made it halfway to the platter.
                self._log.append(in_flight[: len(in_flight) // 2])
            elif self._log:
                last = self._log[-1]
                self._log[-1] = last[: max(1, len(last) // 2)]
        elif mode == "corrupt":
            if self._log:
                self._log[-1] = _flip_middle_bit(self._log[-1])
            elif self._blobs:
                newest = sorted(self._blobs)[-1]
                self._blobs[newest] = _flip_middle_bit(self._blobs[newest])

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def counters(self) -> dict:
        return {
            "fsyncs": self.fsyncs,
            "appends": self.appends,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "busy_time": self.busy_time,
            "crashes": self.crashes,
        }

    def __repr__(self) -> str:
        return (
            f"<SimDisk {self.name} log={len(self._log)}+{len(self._log_volatile)}v "
            f"blobs={len(self._blobs)} fsyncs={self.fsyncs}>"
        )


def _flip_middle_bit(data: bytes) -> bytes:
    """Flip one bit in the middle byte of ``data`` (deterministic)."""
    if not data:
        return data
    index = len(data) // 2
    mutated = bytearray(data)
    mutated[index] ^= 0x10
    return bytes(mutated)
