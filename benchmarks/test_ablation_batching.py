"""Ablation: Mod-SMaRt request batching.

Batching is the library design decision that keeps agreement off the
critical path (DESIGN.md §2): the leader packs every pending request
into one PROPOSE, so consensus cost amortizes across the batch. At SCADA
load (1000 updates/s) the serial Master hides this; to expose it, this
ablation drives the bare replication stack (echo service) at 10k req/s —
with batch_max=1 the sequential consensus caps throughput at roughly
1/instance-latency, while real batching sustains the offered load.

It also confirms the SCADA-level observation: at 1000 updates/s the
integrated system's throughput is insensitive to batch_max, because the
Master, not agreement, is the bottleneck (§V-B).
"""

from conftest import once, print_table

from repro.bftsmart import EchoService, GroupConfig, build_group, build_proxy
from repro.crypto import KeyStore
from repro.net import ConstantLatency, Network
from repro.sim import Simulator
from repro.workloads import ThroughputMeter

OFFERED = 10_000.0
WARMUP = 0.2
WINDOW = 0.5


def run_point(batch_max: int):
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.00025))
    keystore = KeyStore()
    # Depth 1: the default depth-4 pipeline would overlap four instances
    # and hide exactly the per-instance latency this ablation measures.
    config = GroupConfig(
        n=4, f=1, batch_max=batch_max, batch_wait=0.0005, pipeline_depth=1
    )
    replicas = build_group(sim, net, config, EchoService, keystore)
    proxy = build_proxy(sim, net, "load-client", config, keystore, invoke_timeout=10.0)

    def firehose():
        interval = 1.0 / OFFERED
        while True:
            event = proxy.invoke_ordered(b"x" * 64)
            event.add_callback(lambda ev: setattr(ev, "defused", True))
            yield sim.timeout(interval)

    sim.process(firehose())
    meter = ThroughputMeter(sim, lambda: replicas[0].stats["executed"])
    sim.run(until=WARMUP)
    meter.open_window()
    sim.run(until=WARMUP + WINDOW)
    meter.close_window()
    instances = replicas[0].stats["decided"]
    return meter.rate, instances


def test_batching_ablation(benchmark):
    results = once(benchmark, lambda: {b: run_point(b) for b in (1, 10, 500)})
    print_table(
        "Ablation — Mod-SMaRt batching (bare library, offered 10k req/s)",
        ["batch_max", "throughput (req/s)", "consensus instances"],
        [
            [str(b), f"{rate:.0f}", str(instances)]
            for b, (rate, instances) in results.items()
        ],
    )
    rate1, _inst1 = results[1]
    rate500, inst500 = results[500]
    # Unbatched consensus caps at ~1/instance-latency; batching recovers
    # nearly the full offered load with far fewer instances.
    assert rate500 > 3 * rate1
    assert rate500 >= OFFERED * 0.8
    assert inst500 < rate500 * WINDOW / 3
