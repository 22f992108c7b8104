"""Wall-clock profiler for the hot-path performance pass.

Runs the two heaviest pipelines of the repository — the §V-B BFT-SMaRt
microbenchmark (1 KiB echo under a 25k req/s firehose) and the Figure
8(a) update workload — twice inside one process: once with every
optimisation switch off (:mod:`repro.perf` restores the legacy code
paths) and once with them on. Besides the wall-clock times it collects
the kernel counters (:meth:`repro.sim.Simulator.stats`) and the cache
hit/miss statistics, and asserts that both phases produced *identical*
simulation results — the caching layers must be behaviour-invisible.

``profile_hot_paths`` returns the report as a dict;
``write_report`` dumps it to ``BENCH_PERF.json``. The ``python -m repro
perf`` subcommand and ``benchmarks/test_perf_wallclock.py`` are thin
wrappers around these two functions.
"""

from __future__ import annotations

import json
import time

from repro.perf import PERF, hot_path_optimizations

#: Default output file, at the repository root when run from there.
REPORT_FILE = "BENCH_PERF.json"


def run_bft_micro(
    offered_rate: float = 25_000.0,
    warmup: float = 0.2,
    window: float = 0.6,
    payload_size: int = 1024,
    seed: int = 1,
):
    """The §V-B microbenchmark pipeline (mirrors ``benchmarks/test_bft_micro``).

    Returns ``(result, kernel_stats)`` where ``result`` is the
    ``(rate, replica_stats)`` pair the benchmark asserts on and
    ``kernel_stats`` is the simulator's counter snapshot.
    """
    from repro.bftsmart import EchoService, GroupConfig, build_group, build_proxy
    from repro.crypto import KeyStore
    from repro.net import ConstantLatency, Network
    from repro.sim import Simulator
    from repro.workloads.metrics import ThroughputMeter

    payload = bytes(payload_size)
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.00025))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, batch_max=500, batch_wait=0.001)
    replicas = build_group(sim, net, config, EchoService, keystore)
    proxy = build_proxy(
        sim, net, "load-client", config, keystore, invoke_timeout=5.0
    )

    def firehose():
        interval = 1.0 / offered_rate
        while True:
            event = proxy.invoke_ordered(payload)
            event.add_callback(lambda ev: setattr(ev, "defused", True))
            yield sim.timeout(interval)

    sim.process(firehose())
    meter = ThroughputMeter(sim, lambda: replicas[0].stats["executed"])
    sim.run(until=warmup)
    meter.open_window()
    sim.run(until=warmup + window)
    meter.close_window()
    return (meter.rate, dict(replicas[0].stats)), sim.stats()


def run_fig8a(rate: float = 1000.0, duration: float = 2.0, seed: int = 1):
    """The Figure 8(a) update pipeline (SMaRt-SCADA, no alarms)."""
    from repro.workloads.runner import run_update_experiment

    result = run_update_experiment(
        "smartscada", rate=rate, alarm_ratio=0.0, duration=duration, seed=seed
    )
    return (result.throughput, result.latency), None


PIPELINES = {
    "bft_micro": run_bft_micro,
    "fig8a_update": run_fig8a,
}


def _measure(fn, enabled: bool) -> dict:
    with hot_path_optimizations(enabled):
        start = time.perf_counter()
        result, kernel = fn()
        wall = time.perf_counter() - start
        cache_stats = PERF.stats_map() if enabled else None
    entry = {"wall_s": wall, "result": result}
    if kernel is not None:
        entry["kernel"] = kernel
    if cache_stats is not None:
        entry["cache_stats"] = cache_stats
    return entry


def profile_hot_paths(pipelines: dict | None = None) -> dict:
    """Measure every pipeline with optimisations off, then on.

    Raises ``AssertionError`` if any pipeline's simulation result differs
    between the two phases: every optimisation must be invisible to the
    simulated behaviour, not just to the tests.
    """
    pipelines = PIPELINES if pipelines is None else pipelines
    report = {
        "description": (
            "Hot-path performance pass: wall-clock seconds per pipeline "
            "with every optimisation switch off (baseline, legacy code "
            "paths) vs on (optimized)."
        ),
        "switches": PERF.enabled_map(),
        # Both phases of every pipeline run on this event kernel (the
        # on/off toggling deliberately never swaps kernels).
        "event_kernel": PERF.kernel,
        "pipelines": {},
    }
    for name, fn in pipelines.items():
        baseline = _measure(fn, enabled=False)
        optimized = _measure(fn, enabled=True)
        if baseline["result"] != optimized["result"]:
            raise AssertionError(
                f"{name}: optimisations changed the simulation result — "
                f"baseline={baseline['result']!r} "
                f"optimized={optimized['result']!r}"
            )
        baseline.pop("result")
        optimized.pop("result")
        report["pipelines"][name] = {
            "baseline": baseline,
            "optimized": optimized,
            "speedup": baseline["wall_s"] / optimized["wall_s"],
            "results_equal": True,
        }
    return report


def write_report(report: dict, path: str = REPORT_FILE) -> str:
    """Write ``report``'s sections into ``path``, merging over the file.

    Top-level keys already present on disk but absent from ``report``
    (e.g. the ``pipeline_ablation`` curve written by a different
    benchmark) are preserved, so the wallclock pass and the ablations can
    update the same BENCH_PERF.json in any order.
    """
    merged: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            existing = json.load(fh)
        if isinstance(existing, dict):
            merged = existing
    except (OSError, ValueError):
        merged = {}
    merged.update(report)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(merged, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def summary_rows(report: dict) -> list:
    """Rows for the paper-style summary table of a profiler report."""
    rows = []
    for name, entry in sorted(report.get("pipelines", {}).items()):
        rows.append(
            [
                name,
                f"{entry['baseline']['wall_s']:.2f}",
                f"{entry['optimized']['wall_s']:.2f}",
                f"{entry['speedup']:.2f}x",
                "yes" if entry.get("results_equal") else "NO",
            ]
        )
    return rows
