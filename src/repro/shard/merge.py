"""A deterministic global order for the sharded AE event stream.

Each group orders its own events perfectly (consensus), but the HMI
subscribes to *all* groups and needs one coherent alarm sequence. The
rule, applied identically by every observer:

    global order = sort by (logical timestamp, shard id, per-shard seq)

- The **logical timestamp** is the consensus-assigned ContextInfo clock
  (§IV-C): deterministic across the replicas of a group, monotone along
  each group's decision log.
- The **shard id** breaks cross-shard ties: two events stamped at the
  same logical instant by different groups have no causal order, so any
  fixed tiebreak is correct — the shard id is the conventional one.
- The **per-shard sequence** (position in the group's commit order)
  breaks intra-shard ties; it never contradicts the timestamp because
  each group's log is timestamp-monotone.

:func:`merge_event_streams` applies the rule offline to whole per-shard
logs (the ground truth tests compare against). :class:`GlobalAeMerger`
applies it online: it buffers arriving events for a short holdback and
releases them in global order, so the HMI's live AE stream matches the
offline merge whenever cross-shard skew stays inside the holdback —
and stays *deterministic* (same seed, same released sequence) even when
it does not, because late events count but are never reordered
retroactively.
"""

from __future__ import annotations

#: Holdback of the global AE merge (seconds).
MERGE_HOLDBACK = 0.05


def merge_key(timestamp: float, shard: int, seq: int) -> tuple:
    """The global AE sort key."""
    return (timestamp, shard, seq)


def merge_event_streams(streams) -> list:
    """Merge per-shard event logs into the global order.

    ``streams`` is a sequence indexed by shard id, each element the
    shard's events in commit order. Returns ``(shard, event)`` pairs in
    global order.
    """
    tagged = []
    for shard, events in enumerate(streams):
        for seq, event in enumerate(events):
            tagged.append((merge_key(event.timestamp, shard, seq), shard, event))
    tagged.sort(key=lambda entry: entry[0])
    return [(shard, event) for _key, shard, event in tagged]


class GlobalAeMerger:
    """Online holdback merge of per-shard AE pushes.

    Parameters
    ----------
    sim:
        The simulator (clock + timers).
    sink:
        ``fn(shard, event)`` called for every released event, in global
        order.
    holdback:
        How long an event may wait for smaller-keyed stragglers from
        other shards before it is released. Larger than the push-path
        latency in the fault-free case; a late event (arriving after
        something greater was already released) is released immediately
        and counted in ``stats["late"]``. ``0.0`` releases every event on
        offer and never arms a timer: the one-group case, where no other
        stream can undercut a key.
    """

    def __init__(
        self, sim, sink, holdback: float = MERGE_HOLDBACK, process: str = "ae-merger"
    ) -> None:
        if holdback < 0:
            raise ValueError("holdback must be non-negative")
        self.sim = sim
        self.sink = sink
        self.holdback = holdback
        self.process = process
        #: Buffered ``(key, shard, event)`` entries, kept sorted lazily.
        self._pending: list = []
        self._seq: dict[int, int] = {}
        self._timer_armed = False
        self._last_released_key: tuple | None = None
        #: ``(global_seq, shard, event)`` of everything released, in order.
        self.released: list = []
        self.stats = {"offered": 0, "released": 0, "late": 0, "peak_buffer": 0}
        #: (shard, seq) -> open ``shard.merge.holdback`` span.
        self._spans: dict = {}

    @property
    def pending(self) -> int:
        """Events currently held back waiting for the watermark."""
        return len(self._pending)

    def oldest_pending_age(self, now: float) -> float:
        """Age of the oldest buffered event (0.0 when the buffer is empty).

        This is the AE *freshness* signal the SLO engine evaluates: how
        long the most delayed alarm has been invisible to the operator.
        """
        if not self._pending:
            return 0.0
        oldest = min(entry[0][0] for entry in self._pending)
        return max(now - oldest, 0.0)

    def offer(self, shard: int, event) -> None:
        """Feed one event from ``shard`` (in that shard's push order)."""
        seq = self._seq.get(shard, 0)
        self._seq[shard] = seq + 1
        key = merge_key(event.timestamp, shard, seq)
        self.stats["offered"] += 1
        tracer = self.sim.tracer
        if self._last_released_key is not None and key < self._last_released_key:
            # A straggler beyond the holdback: the greater-keyed events
            # are already out, so release it now rather than rewrite
            # history. Deterministic — arrival order is seeded.
            self.stats["late"] += 1
            if tracer is not None and tracer.enabled:
                tracer.point(
                    "shard.merge.late",
                    f"ae:s{shard}:{seq}",
                    process=self.process,
                    shard=shard,
                    seq=seq,
                    timestamp=event.timestamp,
                )
            self._release(key, shard, event)
            return
        if not self.holdback:
            self._release(key, shard, event)
            return
        if tracer is not None and tracer.enabled:
            self._spans[(shard, seq)] = tracer.begin(
                "shard.merge.holdback",
                f"ae:s{shard}:{seq}",
                process=self.process,
                shard=shard,
                seq=seq,
                timestamp=event.timestamp,
            )
        self._pending.append((key, shard, event))
        if len(self._pending) > self.stats["peak_buffer"]:
            self.stats["peak_buffer"] = len(self._pending)
        if not self._timer_armed:
            self._timer_armed = True
            self.sim.defer(self.holdback, self._on_timer)

    def _on_timer(self) -> None:
        self._timer_armed = False
        self._release_due(self.sim.now - self.holdback)
        if self._pending:
            # Wake exactly when the oldest buffered event matures.
            oldest = min(entry[0][0] for entry in self._pending)
            delay = max(oldest + self.holdback - self.sim.now, 0.0)
            self._timer_armed = True
            self.sim.defer(delay, self._on_timer)

    def _release_due(self, watermark: float) -> None:
        due = [entry for entry in self._pending if entry[0][0] <= watermark]
        if not due:
            return
        due.sort(key=lambda entry: entry[0])
        self._pending = [e for e in self._pending if e[0][0] > watermark]
        for key, shard, event in due:
            self._release(key, shard, event)

    def _release(self, key: tuple, shard: int, event) -> None:
        if self._last_released_key is None or key > self._last_released_key:
            self._last_released_key = key
        self.stats["released"] += 1
        span = self._spans.pop((shard, key[2]), None)
        if span is not None:
            tracer = self.sim.tracer
            if tracer is not None:
                tracer.end(span, global_seq=len(self.released))
        self.released.append((len(self.released), shard, event))
        self.sink(shard, event)

    def flush(self) -> None:
        """Drain everything buffered, in global order (quiescence)."""
        self._release_due(float("inf"))

    def released_events(self) -> list:
        """``(shard, event)`` pairs released so far, in global order."""
        return [(shard, event) for _seq, shard, event in self.released]
