"""Span tracing in simulated time.

A :class:`Span` is one named interval ``[start, end]`` of simulated time
on one process (a replica, a proxy, a client, the HMI), tagged with a
``trace_id`` that ties together every span one request touched across the
whole deployment. The :class:`SpanTracer` hangs off the simulator
(``sim.tracer``); components record spans through it and **never**
schedule events or mutate protocol state, so an installed tracer cannot
change a run's behaviour.

Trace identity
--------------
The wire protocol is not stamped by default (message sizes feed the
latency model, so tracing on vs off must keep every frame byte-identical).
Instead trace ids are *derived*: a BFT request is identified as
``req:<client_id>:<sequence>`` — reconstructable on any replica from the
request it already holds (:func:`request_trace_id`). Higher layers link
their own ids to the derived one with :meth:`SpanTracer.alias`
(``op:<op_id>`` for an HMI write becomes the canonical trace the BFT
spans resolve into). Messages *can* carry an explicit ``trace_id`` wire
field (``ClientRequest.trace_id``); :func:`request_trace_id` prefers it
when present, which the codec round-trip tests exercise (``ServiceProxy``
itself always sends the field empty).

Span naming scheme (``docs/OBSERVABILITY.md`` has the full table):
``hmi.write`` → ``proxy.forward`` → ``request`` →
``request.pending`` / ``consensus`` (+ ``.write`` / ``.accept`` /
``.pipeline_wait``) / ``wal.append`` / ``request.execute`` →
``request.reply_quorum``.
"""

from __future__ import annotations


class Span:
    """One recorded interval of simulated time on one process."""

    __slots__ = (
        "span_id",
        "trace_id",
        "parent_id",
        "name",
        "start",
        "end",
        "process",
        "attrs",
        "trace_ids",
    )

    def __init__(
        self,
        span_id: str,
        trace_id: str,
        parent_id: str | None,
        name: str,
        start: float,
        process: str,
        attrs: dict,
        trace_ids: tuple = (),
    ) -> None:
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        #: ``None`` while the span is open.
        self.end: float | None = None
        self.process = process
        self.attrs = attrs
        #: Extra trace ids this span also belongs to (a consensus span
        #: covers every request of its batch).
        self.trace_ids = trace_ids

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "process": self.process,
            "attrs": self.attrs,
            "trace_ids": list(self.trace_ids),
        }

    def __repr__(self) -> str:
        end = "open" if self.end is None else f"{self.end:.6f}"
        return (
            f"<Span {self.name} {self.trace_id} [{self.start:.6f}..{end}] "
            f"@{self.process}>"
        )


def request_trace_id(request) -> str:
    """The trace id of a BFT client request.

    Prefers an explicit wire ``trace_id`` (opt-in stamping); otherwise
    derives the deterministic ``req:<client>:<sequence>`` id every
    replica can reconstruct without any wire support.
    """
    wire = getattr(request, "trace_id", "")
    if wire:
        return wire
    return f"req:{request.client_id}:{request.sequence}"


class SpanTracer:
    """Records causally-linked spans for one simulation.

    The tracer is passive: :meth:`begin`/:meth:`end`/:meth:`point` only
    append records stamped with ``sim.now``. ``max_spans`` bounds memory
    in long campaigns — once reached, new spans are counted in
    ``dropped`` but not retained (existing spans keep ending normally).
    """

    def __init__(self, sim, max_spans: int | None = None) -> None:
        self.sim = sim
        self.enabled = True
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        self._next_id = 0
        #: alias trace id -> canonical trace id.
        self._aliases: dict[str, str] = {}
        #: canonical trace id -> spans (insertion order).
        self._index: dict[str, list] = {}
        #: canonical trace id -> first span recorded for it (the root).
        self._roots: dict[str, Span] = {}
        #: listeners notified with every span as it *closes*.
        self._subscribers: list = []

    # -- subscription ---------------------------------------------------

    def subscribe(self, fn) -> None:
        """Call ``fn(span)`` whenever a span closes.

        Subscribers see every span — including ones dropped by the
        ``max_spans`` cap — so a streaming consumer (the IDS) is not
        limited by the retention bound. Subscribers must be passive:
        they run inline from :meth:`end`/:meth:`point` and must not
        schedule events or mutate protocol state.
        """
        self._subscribers.append(fn)

    def _notify(self, span: Span) -> None:
        for fn in self._subscribers:
            fn(span)

    # -- identity -------------------------------------------------------

    def resolve(self, trace_id: str) -> str:
        """Follow alias links to the canonical trace id."""
        seen = 0
        while trace_id in self._aliases and seen < 16:
            trace_id = self._aliases[trace_id]
            seen += 1
        return trace_id

    def alias(self, alias_id: str, canonical_id: str) -> None:
        """Declare ``alias_id`` to name the same trace as ``canonical_id``.

        Used to link a derived BFT trace id to an upstream one (an HMI
        write's ``op:<op_id>``), merging the span trees.
        """
        canonical = self.resolve(canonical_id)
        if alias_id != canonical:
            self._aliases[alias_id] = canonical

    def for_request(self, request) -> str:
        """Canonical trace id of a BFT request (wire field or derived)."""
        return self.resolve(request_trace_id(request))

    # -- recording ------------------------------------------------------

    def begin(
        self,
        name: str,
        trace_id: str,
        parent=None,
        process: str = "",
        start: float | None = None,
        trace_ids: tuple = (),
        **attrs,
    ) -> Span:
        """Open a span at ``sim.now`` (or an explicit earlier ``start``).

        ``parent`` is a :class:`Span` (or a span id string). With no
        parent, the first span of a trace becomes its root and later
        parentless spans of the same trace attach under that root — so
        replica-side spans need no cross-process parent plumbing.
        """
        canonical = self.resolve(trace_id)
        self._next_id += 1
        parent_id = getattr(parent, "span_id", parent)
        span = Span(
            span_id=f"s{self._next_id}",
            trace_id=canonical,
            parent_id=parent_id,
            name=name,
            start=self.sim.now if start is None else start,
            process=process,
            attrs=attrs,
            trace_ids=tuple(self.resolve(t) for t in trace_ids),
        )
        if self.max_spans is not None and len(self.spans) >= self.max_spans:
            self.dropped += 1
            return span  # detached: callers may still end() it harmlessly
        root = self._roots.get(canonical)
        if root is None:
            self._roots[canonical] = span
        elif parent_id is None and root is not span:
            span.parent_id = root.span_id
        self.spans.append(span)
        self._index.setdefault(canonical, []).append(span)
        for extra in span.trace_ids:
            if extra != canonical:
                self._index.setdefault(extra, []).append(span)
                self._roots.setdefault(extra, span)
        return span

    def end(self, span: Span, **attrs) -> Span:
        """Close ``span`` at ``sim.now``; extra attrs are merged in."""
        first_close = span.end is None
        if first_close:
            span.end = self.sim.now
        if attrs:
            span.attrs.update(attrs)
        if first_close and self._subscribers:
            self._notify(span)
        return span

    def point(
        self,
        name: str,
        trace_id: str,
        parent=None,
        process: str = "",
        trace_ids: tuple = (),
        **attrs,
    ) -> Span:
        """A zero-duration marker span (e.g. one WAL append)."""
        span = self.begin(
            name, trace_id, parent=parent, process=process, trace_ids=trace_ids, **attrs
        )
        span.end = span.start
        if self._subscribers:
            self._notify(span)
        return span

    # -- queries --------------------------------------------------------

    def spans_for(self, trace_id: str) -> list:
        """Every span of one trace (aliases resolved), insertion order."""
        return list(self._index.get(self.resolve(trace_id), ()))

    def root_of(self, trace_id: str) -> Span | None:
        return self._roots.get(self.resolve(trace_id))

    def trace_ids(self) -> list:
        """Canonical trace ids in the order their roots were recorded."""
        return list(self._roots)

    def finished_roots(self, name: str | None = None) -> list:
        """Closed root spans (optionally filtered by span name)."""
        return [
            span
            for span in self._roots.values()
            if span.end is not None and (name is None or span.name == name)
        ]

    def window(self, t0: float, t1: float) -> list:
        """Spans overlapping simulated-time interval ``[t0, t1]``."""
        result = []
        for span in self.spans:
            end = span.end if span.end is not None else self.sim.now
            if end >= t0 and span.start <= t1:
                result.append(span)
        return result

    def clear(self) -> None:
        """Forget every recorded span (aliases survive; ids keep growing)."""
        self.spans.clear()
        self._index.clear()
        self._roots.clear()
        self.dropped = 0

    def __repr__(self) -> str:
        return f"<SpanTracer {len(self.spans)} spans, {len(self._roots)} traces>"


def install_tracer(sim, max_spans: int | None = None) -> SpanTracer:
    """Attach a fresh :class:`SpanTracer` to ``sim`` and return it.

    Until this is called, ``sim.tracer`` is ``None`` and every
    instrumentation point in the codebase is a single no-op guard check.
    """
    tracer = SpanTracer(sim, max_spans=max_spans)
    sim.tracer = tracer
    return tracer
