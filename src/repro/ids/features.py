"""Windowed trace-derived features, fed by the span subscription hook.

The :class:`FeatureExtractor` is a pure consumer: it registers with
:meth:`repro.obs.trace.SpanTracer.subscribe` and folds every closing
span into rolling per-entity windows. Nothing here schedules events or
reads protocol state — the features are exactly what a bump-in-the-wire
observer could compute from the traffic it already sees.

Feature catalogue (``docs/IDS.md`` has the full table):

=====================  =============================================
feature                source spans
=====================  =============================================
consensus rate         ``consensus`` per replica process
protocol activity      any ``consensus.*`` / ``request.*`` /
                       ``wal.append`` span per replica process
last reply clock       ``reply.recv`` points (per voting client)
reply divergence       ``reply.mismatch`` points
push divergence        ``push.mismatch`` points
suspicion              ``sync.suspect`` points (suspecter, leader,
                       cause)
leader changes         ``sync.leader_change`` spans
write profile          ``hmi.write`` spans (rate, tag spread)
=====================  =============================================
"""

from __future__ import annotations

from collections import deque


def _prune(dq: deque, cutoff: float) -> None:
    while dq and dq[0][0] < cutoff:
        dq.popleft()


class FeatureExtractor:
    """Folds the live span stream into rolling per-entity windows."""

    def __init__(self, window: float = 1.0) -> None:
        self.window = window
        #: replica process -> deque[(end_time,)] of ``consensus`` roots.
        self.consensus: dict[str, deque] = {}
        #: replica process -> last time *any* protocol span closed there.
        self.last_activity: dict[str, float] = {}
        #: replying replica -> last accepted reply time.
        self.last_reply: dict[str, float] = {}
        #: deviant replica -> deque[(time,)] of divergent ordered replies.
        self.reply_mismatch: dict[str, deque] = {}
        #: deviant replica -> deque[(time,)] of divergent pushes.
        self.push_mismatch: dict[str, deque] = {}
        #: deque[(time, suspecting replica, suspected leader, cause)].
        self.suspects: deque = deque()
        #: deque[(time, regency)] of completed leader changes.
        self.leader_changes: deque = deque()
        #: HMI client process -> deque[(time, item, value)].
        self.writes: dict[str, deque] = {}
        #: Spans consumed (diagnostics).
        self.spans_seen = 0

    # -- ingestion (the SpanTracer.subscribe callback) ------------------

    def on_span(self, span) -> None:
        self.spans_seen += 1
        name = span.name
        t = span.end
        if name.startswith("consensus"):
            if name == "consensus":
                self.consensus.setdefault(span.process, deque()).append((t,))
            self.last_activity[span.process] = t
        elif name in ("request.execute", "request.pending", "wal.append"):
            self.last_activity[span.process] = t
        elif name == "reply.recv":
            replica = span.attrs.get("replica", "")
            self.last_reply[replica] = t
        elif name == "reply.mismatch":
            replica = span.attrs.get("replica", "")
            self.reply_mismatch.setdefault(replica, deque()).append((t,))
        elif name == "push.mismatch":
            replica = span.attrs.get("replica", "")
            self.push_mismatch.setdefault(replica, deque()).append((t,))
        elif name == "sync.suspect":
            attrs = span.attrs
            self.suspects.append(
                (t, span.process, attrs.get("leader", ""), attrs.get("cause", ""))
            )
        elif name == "sync.leader_change":
            self.leader_changes.append((t, span.attrs.get("regency", -1)))
        elif name == "hmi.write":
            self.writes.setdefault(span.process, deque()).append(
                (t, span.attrs.get("item", ""), span.attrs.get("value"))
            )

    # -- windowed reads -------------------------------------------------

    def prune(self, now: float) -> None:
        cutoff = now - self.window
        for table in (
            self.consensus,
            self.reply_mismatch,
            self.push_mismatch,
            self.writes,
        ):
            for dq in table.values():
                _prune(dq, cutoff)
        _prune(self.suspects, cutoff)
        _prune(self.leader_changes, cutoff)

    def consensus_count(self, process: str) -> int:
        return len(self.consensus.get(process, ()))

    def mismatch_count(self, replica: str) -> int:
        return len(self.reply_mismatch.get(replica, ()))

    def push_mismatch_count(self, replica: str) -> int:
        return len(self.push_mismatch.get(replica, ()))

    def write_rate(self, client: str) -> float:
        """Writes per second from ``client`` over the window."""
        return len(self.writes.get(client, ())) / self.window

    def write_tag_spread(self, client: str) -> int:
        return len({item for _t, item, _v in self.writes.get(client, ())})
