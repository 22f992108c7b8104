"""Observability: simulated-time tracing and a unified metrics layer.

``repro.obs`` is the subsystem every other layer reports into:

:mod:`repro.obs.metrics`
    Named counters, gauges, fixed-bucket histograms and group providers
    behind one :class:`~repro.obs.metrics.MetricsRegistry`. The kernel's
    ``Simulator.stats()`` is assembled from this registry — subsystems
    register once, benchmarks and chaos monitors read uniformly.
:mod:`repro.obs.trace`
    A :class:`~repro.obs.trace.SpanTracer` recording causally-linked
    spans in **simulated** time across every process of a deployment:
    HMI write → proxy → client request → consensus phases per replica →
    WAL append → execution → reply quorum.
:mod:`repro.obs.export`
    Chrome trace-event JSON (Perfetto-loadable), JSONL spans, and the
    text "request autopsy" — the measured analogue of the paper's
    Figures 6/7 step counts.
:mod:`repro.obs.slo`
    Declarative service-level objectives (latency / availability /
    freshness) evaluated in sim time with burn-rate error budgets,
    emitting typed :class:`~repro.obs.slo.SloViolation` events.
:mod:`repro.obs.fleet`
    The :class:`~repro.obs.fleet.FleetScoreboard` — per-shard and
    fleet-level health folded from metrics, liveness, merger holdback,
    router caches, IDS verdicts and heal actions; strictly passive.
:mod:`repro.obs.report`
    ASCII scoreboard and static HTML renderers over a scoreboard
    snapshot (``python -m repro chaos <scenario> --fleet``).

Tracing is **off by default and behaviour-invisible**: ``sim.tracer`` is
``None`` until :func:`install_tracer` attaches one, every instrumentation
point is a no-op guard check when it is, and an installed tracer never
schedules events or changes wire bytes — a seeded run executes the
identical request stream with tracing on or off
(``tests/test_trace_determinism.py``).
"""

from repro.obs.fleet import FleetSample, FleetScoreboard, ShardHealth
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import render_scoreboard, write_html_report
from repro.obs.slo import SloEngine, SloSpec, SloViolation, default_fleet_slos
from repro.obs.trace import Span, SpanTracer, install_tracer, request_trace_id

__all__ = [
    "Counter",
    "FleetSample",
    "FleetScoreboard",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ShardHealth",
    "SloEngine",
    "SloSpec",
    "SloViolation",
    "Span",
    "SpanTracer",
    "default_fleet_slos",
    "install_tracer",
    "render_scoreboard",
    "request_trace_id",
    "write_html_report",
]
