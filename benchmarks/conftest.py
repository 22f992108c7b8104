"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's evaluation artefacts
(Figure 8's three panels, the message-flow step counts of Figures 3/4/6/7,
the §V-B BFT-SMaRt microbenchmark claim, the §IV-D liveness property) or
an ablation of a design decision. Simulations are deterministic, so each
measurement runs once (``rounds=1``) and the interesting output is the
paper-style table printed at the end, plus shape assertions.
"""

from __future__ import annotations

from repro.__main__ import _print_table as print_table  # noqa: F401  (re-exported)


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    box = {}

    def runner():
        box["result"] = fn()

    benchmark.pedantic(runner, rounds=1, iterations=1, warmup_rounds=0)
    return box["result"]


def role_of(address: str) -> str:
    """Map a network address onto its architectural role (for step counts)."""
    if address.endswith("-adapter"):
        return "adapter-client"
    if address.endswith("-bft"):
        base = address[: -len("-bft")]
        return f"{role_of(base)}-client"
    if address.startswith("replica-"):
        return "proxy-master"
    if address.startswith("scada-master"):
        return "master"
    if address.startswith("proxy-frontend"):
        return "proxy-frontend"
    if address.startswith("proxy-hmi"):
        return "proxy-hmi"
    if address.startswith("frontend"):
        return "frontend"
    if address.startswith("rtu"):
        return "rtu"
    if address.startswith("hmi"):
        return "hmi"
    return address


def flow_stages(trace) -> list:
    """Collapse a hop trace into the ordered distinct (kind, src→dst) stages.

    This is the simulated counterpart of the numbered arrows in the
    paper's message-flow figures: broadcast fan-out (one PROPOSE to three
    replicas) is one stage, as the paper counts it.
    """
    stages = []
    for hop in trace.hops:
        stage = (hop.kind, role_of(hop.src), role_of(hop.dst))
        if not stages or stages[-1] != stage:
            if stage not in stages:
                stages.append(stage)
    return stages
