"""From step results to the named metrics of ``BENCHMARK.json``.

The manifest at the repository root is the one catalogue of metric
names, units, directions and bounds; this module computes a value for
every name in it and refuses to report a set that differs from it.
``README.md`` says what each metric means and which end-to-end metric
each per-layer metric is expected to move.
"""

from __future__ import annotations

import json
import pathlib
import statistics

from hostclock import calibrated

MANIFEST_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_manifest() -> dict:
    with open(MANIFEST_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# simulated time: identical for a seed, whatever the host does
# ---------------------------------------------------------------------------


def sim_metrics(steps: dict) -> dict:
    """The ``sim_*`` values of one pass.

    Latency is read at the first step (``ref``: below capacity), throughput
    at the last (``sat``: above it); a one-step workload uses its step for
    both. ``sim_unavailable_s`` is the longest silence any step saw.
    """
    ref = next(iter(steps.values()))
    sat = list(steps.values())[-1]
    # Linear interpolation between order statistics, rank p/100 * (n - 1).
    percentiles = statistics.quantiles(ref.sim_latencies_ms, n=100, method="inclusive")
    return {
        "sim_ops_per_s": sat.sim_ops_per_s,
        "sim_p50_ms": percentiles[49],
        "sim_p99_ms": percentiles[98],
        "sim_unavailable_s": max(step.sim_max_gap_s for step in steps.values()),
    }


def latency_samples(steps: dict) -> int:
    return len(next(iter(steps.values())).sim_latencies_ms)


# ---------------------------------------------------------------------------
# host time: calibrated CPU seconds over the steady windows
# ---------------------------------------------------------------------------


def host_metrics(steps: dict) -> dict:
    """Host cost of one pass, steady windows of all steps pooled."""
    cpu = sum(step.cpu_s for step in steps.values())
    spin_cpu = sum(step.spin_cpu_s for step in steps.values())
    spins = sum(step.spins for step in steps.values())
    sim_s = sum(step.window_sim_s for step in steps.values())
    events = sum(step.events for step in steps.values())
    cpu_cal = calibrated(cpu, spin_cpu, spins)
    return {
        "host_cpu_s_per_sim_s": cpu_cal / sim_s,
        "host_events_per_cpu_s": events / cpu_cal,
        # Not in the manifest: raw seconds, for whoever reads the result.
        "raw_cpu_s_per_sim_s": cpu / sim_s,
        "raw_wall_s_per_sim_s": sum(step.wall_s for step in steps.values()) / sim_s,
        "spin_ms": 1e3 * spin_cpu / spins,
    }


def end_to_end(passes: list, setup_s: float, peak_rss_mb: float) -> dict:
    """Every end-to-end metric: ``sim_*`` from pass 1, host medians of passes."""
    values = sim_metrics(passes[0])
    host = [host_metrics(steps) for steps in passes]
    for name in ("host_cpu_s_per_sim_s", "host_events_per_cpu_s"):
        values[name] = statistics.median(h[name] for h in host)
    values["host_peak_rss_mb"] = peak_rss_mb
    values["setup_s"] = setup_s
    return values


def failures(passes: list) -> tuple:
    """``(attempted, failed)`` over every step of every pass."""
    attempted = sum(step.attempted for steps in passes for step in steps.values())
    failed = sum(
        sum(step.failures.values()) for steps in passes for step in steps.values()
    )
    return attempted, failed


# ---------------------------------------------------------------------------
# per layer: the traced passes
# ---------------------------------------------------------------------------


#: The layers: packages under ``src/repro`` that sit on a workload's path.
LAYERS = (
    "wire",
    "crypto",
    "sim",
    "net",
    "bftsmart",
    "storage",
    "neoscada",
    "core",
    "shard",
)


def _phase_mean_ms(steps: dict, name: str) -> float:
    count = sum(step.phases.get(name, (0, 0.0))[0] for step in steps.values())
    total = sum(step.phases.get(name, (0, 0.0))[1] for step in steps.values())
    return 1e3 * _ratio(total, count)


def per_layer(untraced: dict, wrapped: dict, layer_tracer, phased: dict, baseline: dict) -> dict:
    """Every per-layer metric of one workload.

    ``untraced`` / ``wrapped`` / ``phased`` are the step results of the
    plain pass, the pass under the layer wrappers, and the pass under the
    program's own simulated-time tracer; ``baseline`` is the unreplicated
    NeoSCADA run (empty where the workload has none). A layer the workload
    does not build reports 0 for its counts and shares.
    """
    steps = wrapped
    ops = sum(step.completed for step in steps.values())
    share = layer_tracer.cpu_shares()
    count = layer_tracer.count

    def total(counter: str) -> float:
        return sum(step.counters.get(counter, 0) for step in steps.values())

    last = list(steps.values())[-1]
    group_updates = last.extra.get("group_updates", [])

    def hit_ratio(cache: str) -> float:
        hits = total(f"perf.{cache}.hits")
        return _ratio(hits, hits + total(f"perf.{cache}.misses"))

    values = {f"{layer}.cpu_share": share.get(layer, 0.0) for layer in LAYERS}
    values.update(
        {
            "wire.encode_calls_per_op": count("Codec.encode") / ops,
            "wire.decode_calls_per_op": (
                count("Codec.decode") + count("Codec.decode_from")
            )
            / ops,
            "wire.bytes_per_op": count("Codec.encode", "size_sum") / ops,
            # Counted outside: encode_cached calls that never reached
            # Codec.encode — versus what the program's own counter says.
            "wire.encode_memo_hit_ratio": _ratio(
                count("encode_cached", "leaf_calls"), count("encode_cached")
            ),
            "wire.encode_memo_hit_ratio_reported": hit_ratio("codec_encode"),
            "crypto.mac_calls_per_op": count("Authenticator.mac") / ops,
            "crypto.verify_calls_per_op": count("Authenticator.verify") / ops,
            "crypto.digest_calls_per_op": count("digest") / ops,
            "crypto.sign_calls_per_op": count("Signer.sign") / ops,
            "crypto.sig_verify_calls_per_op": count("Verifier.verify") / ops,
            "crypto.mac_memo_hit_ratio": hit_ratio("mac"),
            "crypto.digest_cache_hit_ratio": hit_ratio("digest"),
            "sim.events_per_op": total("sim.events") / ops,
            "sim.timers_cancelled_per_op": total("sim.timers_cancelled") / ops,
            "sim.tombstones_skipped": total("sim.tombstones_skipped"),
            "sim.heap_peak": max(s.counters["sim.heap_peak"] for s in steps.values()),
            "net.msgs_per_op": total("net.sent") / ops,
            "net.wire_bytes_per_op": (
                count("LanLatency.delay", "size_sum")
                + count("ConstantLatency.delay", "size_sum")
            )
            / ops,
            "net.dropped": total("net.sent") - total("net.delivered"),
            "bftsmart.ops_per_batch": _ratio(
                total("bft.executed"), total("bft.decided")
            ),
            "bftsmart.instances": total("bft.decided"),
            "bftsmart.queue_wait_ms": _phase_mean_ms(phased, "request.pending"),
            "bftsmart.consensus_ms": _phase_mean_ms(phased, "consensus.write")
            + _phase_mean_ms(phased, "consensus.accept"),
            "bftsmart.pipeline_wait_ms": _phase_mean_ms(
                phased, "consensus.pipeline_wait"
            ),
            "bftsmart.reply_quorum_ms": _phase_mean_ms(phased, "request.reply_quorum"),
            "bftsmart.pipeline_occupancy_mean": statistics.fmean(
                s.counters["bft.pipeline_occupancy_mean"] for s in steps.values()
            ),
            "bftsmart.client_retransmits": total("bft.retransmissions"),
            "bftsmart.rejected_requests": total("bft.rejected_requests"),
            "bftsmart.leader_changes": total("bft.leader_changes"),
            "bftsmart.rejoin_s": last.extra.get("rejoin_s", 0.0),
            "bftsmart.transfer_bytes": last.extra.get("transfer_bytes", 0),
            "storage.fsyncs_per_decision": _ratio(
                total("storage.fsyncs"), total("storage.appends")
            ),
            "storage.wal_bytes_per_op": total("storage.bytes_written") / ops,
            "storage.disk_busy_s": total("storage.busy_time"),
            "storage.wal_entries_replayed": last.extra.get("wal_entries_replayed", 0),
            "neoscada.exec_ms_per_op": _phase_mean_ms(phased, "request.execute"),
            "neoscada.events_stored_per_op": total("master.events") / ops,
            "neoscada.baseline_ops_per_s": (
                sim_metrics(baseline)["sim_ops_per_s"] if baseline else 0.0
            ),
            "neoscada.baseline_p50_ms": (
                sim_metrics(baseline)["sim_p50_ms"] if baseline else 0.0
            ),
            "core.pushes_per_op": total("bft.pushes") / ops,
            "core.push_useful_ratio": _ratio(
                total("bft.pushes_delivered"), count("PushVoter.on_push")
            ),
            "core.logical_timeouts": total("core.logical_timeouts"),
            "shard.router_hit_ratio": _ratio(
                total("shard.router_hits"),
                total("shard.router_hits") + total("shard.router_misses"),
            ),
            "shard.merge_holdback_ms": _phase_mean_ms(phased, "shard.merge.holdback"),
            "shard.merge_late": total("shard.merge_late"),
            "shard.group_imbalance": (
                _ratio(
                    max(group_updates) - min(group_updates),
                    statistics.fmean(group_updates),
                )
                if len(group_updates) > 1
                else 0.0
            ),
            "bench.trace_overhead": (
                host_metrics(wrapped)["host_cpu_s_per_sim_s"]
                / host_metrics(untraced)["host_cpu_s_per_sim_s"]
            ),
            "bench.gen_late_ms_max": 1e3 * max(s.gen_late_s for s in steps.values()),
        }
    )
    return values


def shaped(values: dict, section: list) -> dict:
    """``name -> {"value", "unit"}`` for exactly the manifest's ``section``.

    Raises when the computed set and the manifest disagree: a metric
    added on one side only must not go unnoticed.
    """
    wanted = {entry["name"]: entry["unit"] for entry in section}
    if set(wanted) != set(values):
        raise KeyError(
            f"computed metrics and BENCHMARK.json disagree: "
            f"{sorted(set(wanted) ^ set(values))}"
        )
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in wanted.items()
    }
