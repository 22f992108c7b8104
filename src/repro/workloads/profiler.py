"""The §V-B microbenchmark pipeline and the ``BENCH_PERF.json`` writer.

``run_bft_micro`` is the bare BFT library under a 1 KiB echo firehose —
the pipeline ``benchmarks/test_bft_micro.py`` and the hot-path benchmark
both measure. ``write_report`` merges one
benchmark's section into ``BENCH_PERF.json`` without disturbing the
sections other benchmarks wrote.
"""

from __future__ import annotations

import json

from repro.bftsmart import EchoService, GroupConfig, build_group, build_proxy
from repro.crypto import KeyStore
from repro.net import ConstantLatency, Network
from repro.sim import Simulator
from repro.workloads.metrics import ThroughputMeter

#: Default output file, at the repository root when run from there.
REPORT_FILE = "BENCH_PERF.json"


def start_bft_micro(sim, offered_rate: float, payload_size: int) -> list:
    """Start the §V-B pipeline on ``sim``: the bare n=4 group under an
    open-loop echo firehose of ``payload_size``-byte requests at
    ``offered_rate``. Returns the replicas.
    """
    payload = bytes(payload_size)
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
    return replicas


def run_bft_micro(
    offered_rate: float = 25_000.0,
    warmup: float = 0.2,
    window: float = 0.6,
    payload_size: int = 1024,
    seed: int = 1,
):
    """The §V-B microbenchmark: 1 KiB echo requests at ``offered_rate``.

    Returns ``(result, kernel_stats)`` where ``result`` is the
    ``(rate, replica_stats)`` pair the benchmark asserts on and
    ``kernel_stats`` is the simulator's counter snapshot.
    """
    sim = Simulator(seed=seed)
    replicas = start_bft_micro(sim, offered_rate, payload_size)
    meter = ThroughputMeter(sim, lambda: replicas[0].stats["executed"])
    sim.run(until=warmup)
    meter.open_window()
    sim.run(until=warmup + window)
    meter.close_window()
    return (meter.rate, dict(replicas[0].stats)), sim.stats()


def write_report(report: dict, path: str = REPORT_FILE) -> str:
    """Write ``report``'s sections into ``path``, merging over the file.

    Top-level keys already present on disk but absent from ``report``
    (e.g. the ``pipeline_ablation`` curve written by a different
    benchmark) are preserved, so the benchmarks can update the same
    BENCH_PERF.json in any order.
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
