"""Ablation: horizontal sharding — aggregate throughput vs shard count.

One replicated Master tops out at its execution ceiling no matter how
deep the consensus pipeline goes: the cost model charges
``update_processing + serialization`` (~1.06 ms) per update on the
single-threaded deterministic Master, so a group saturates near
940 updates/s — the regime behind the paper's Figure 8(a). Sharding is
the only remaining axis: N independent BFT groups each bring their own
leader, pipeline and Master, so the aggregate ceiling should scale with
N while the item namespace, the client API and the global AE order stay
exactly as they were.

The sweep offers each group ~1.25x its own ceiling (so every group is
saturated, not load-starved) and measures updates *delivered to the
HMI* — the end of the full pipeline: routing, per-group consensus,
replicated execution, f+1-voted pushes and the global merge.

Results land in ``BENCH_SCALE.json``.
"""

import pathlib

from conftest import once, print_table

from repro.core import SmartScadaConfig
from repro.core import ShardedScadaConfig, build_sharded_scada
from repro.sim import Simulator
from repro.workloads import ThroughputMeter, write_report

REPORT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_SCALE.json"

SHARD_COUNTS = (1, 2, 4)

#: Offered load per group: ~1.25x the single-Master execution ceiling
#: (~940 updates/s from the §VII-b cost model), so each group is the
#: bottleneck and delivered throughput measures capacity, not load.
PER_SHARD_OFFERED = 1200.0
#: Items routed to each group (the namespace spans all groups).
ITEMS_PER_SHARD = 8
WARMUP = 0.5
WINDOW = 1.5
#: Large enough that a saturated group's queue never triggers client
#: retransmissions (which would melt a deliberately overloaded sweep).
INVOKE_TIMEOUT = 30.0


def run_point(shards: int) -> dict:
    sim = Simulator(seed=1)
    config = ShardedScadaConfig(
        shards=shards,
        base=SmartScadaConfig(invoke_timeout=INVOKE_TIMEOUT),
    )
    system = build_sharded_scada(sim, config=config)

    # Balance the workload exactly: ITEMS_PER_SHARD items per group,
    # chosen from a larger candidate pool by the deployment's own map.
    per_shard: dict = {s: [] for s in range(shards)}
    chosen = []
    for i in range(200):
        item = f"bench.item-{i}"
        shard = system.shard_of(item)
        if len(per_shard[shard]) < ITEMS_PER_SHARD:
            per_shard[shard].append(item)
            chosen.append(item)
    assert all(len(owned) == ITEMS_PER_SHARD for owned in per_shard.values())
    for item in chosen:
        system.frontend.add_item(item, initial=0)
    system.start()

    offered = PER_SHARD_OFFERED * shards

    def firehose():
        interval = 1.0 / offered
        i = 0
        while True:
            system.frontend.inject_update(chosen[i % len(chosen)], i)
            i += 1
            yield sim.timeout(interval)

    sim.process(firehose(), name="firehose")
    meter = ThroughputMeter(sim, lambda: system.hmi.stats["updates"])
    sim.run(until=WARMUP)
    meter.open_window()
    sim.run(until=WARMUP + WINDOW)
    meter.close_window()

    per_group_executed = [
        system.group(s)[0].master.stats["updates"] for s in range(shards)
    ]
    return {
        "offered": offered,
        "delivered": meter.rate,
        "per_group_executed": per_group_executed,
        "items": len(chosen),
    }


def test_shard_scaling(benchmark):
    def sweep():
        return {shards: run_point(shards) for shards in SHARD_COUNTS}

    points = once(benchmark, sweep)
    base = points[1]["delivered"]

    print_table(
        f"Ablation — shard scaling (offered {PER_SHARD_OFFERED:.0f}/s per "
        f"group, Fig 8(a)-style updates)",
        ["shards", "offered (ops/s)", "delivered (ops/s)", "vs 1 shard"],
        [
            [
                str(shards),
                f"{p['offered']:.0f}",
                f"{p['delivered']:.0f}",
                f"{p['delivered'] / base:.2f}x",
            ]
            for shards, p in points.items()
        ],
    )

    write_report(
        {
            "shard_scale": {
                "description": (
                    "Aggregate delivered updates/s (HMI-side, full "
                    "pipeline) vs shard count. Each group is offered "
                    "~1.25x the single-Master execution ceiling so the "
                    "sweep measures capacity. 1 shard is the classic "
                    "Figure 8(a) deployment; N shards are N independent "
                    "BFT groups behind the same namespace and proxies."
                ),
                "offered_per_shard": PER_SHARD_OFFERED,
                "items_per_shard": ITEMS_PER_SHARD,
                "warmup_s": WARMUP,
                "window_s": WINDOW,
                "points": {str(shards): p for shards, p in points.items()},
                "speedup_2": points[2]["delivered"] / base,
                "speedup_4": points[4]["delivered"] / base,
            }
        },
        str(REPORT_PATH),
    )

    # The 1-shard baseline really is execution-bound, not offered-bound:
    # it delivers well under the offered load.
    assert base < 0.9 * points[1]["offered"]
    # The scaling claims: near-linear aggregate capacity.
    assert points[2]["delivered"] >= 1.7 * base
    assert points[4]["delivered"] >= 3.0 * base
    # Every group carried real load (the partition balanced).
    for shards in SHARD_COUNTS:
        executed = points[shards]["per_group_executed"]
        assert min(executed) > 0.5 * max(executed), shards
