"""Kernel-churn microbenchmark: heap kernel vs ring kernel, one process.

The workload is the scheduling pattern the simulation actually stresses:
a standing population of failure-detector timers (armed seconds out,
almost always cancelled and re-armed before firing) churned by a
sub-millisecond tick that also issues fire-and-forget deliveries — i.e.
the retransmission/failure-detector shape from the BFT-SMaRt stack,
reduced to pure kernel operations through the portable
``defer``/``timer``/``cancel_timer`` API both kernels implement.

Both kernels run the *identical* seeded workload; the benchmark asserts
their dispatch/cancel counts match before reporting, so the speedup
number can never come from the kernels doing different work.
``run_kernel_report`` packages the results (plus a tracemalloc
allocation probe and the bft-micro end-to-end wall clock) for the
``kernel`` section of ``BENCH_PERF.json``; ``python -m repro perf
kernel-bench`` and the CI throughput gate are thin wrappers.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager

from repro.perf import PERF

#: Standing failure-detector timer population.
DEFAULT_POPULATION = 20_000
#: Simulated seconds of churn per measured run.
DEFAULT_DURATION = 4.0


@contextmanager
def kernel_override(kernel: str):
    """Select ``kernel`` for every Simulator built inside the block."""
    previous = PERF.kernel
    PERF.kernel = kernel
    try:
        yield
    finally:
        PERF.kernel = previous


def _noop() -> None:
    return None


def _build_churn(sim, population: int):
    """Install the churn workload on ``sim``; returns nothing.

    Per 0.5 ms tick: cancel four standing failure-detector timers and
    re-arm them 2 s out, emit two fire-and-forget "deliveries", and
    reschedule itself — so every tick exercises slot allocation, O(1)
    cancellation, wheel insertion at two distance scales and the
    dispatch path, in a fixed deterministic mix.
    """
    rng = sim.rng.stream("kernelbench")
    timer = sim.timer
    cancel = sim.cancel_timer
    defer = sim.defer
    handles = [timer(1.0 + 4.0 * rng.random(), _noop) for _ in range(population)]
    state = {"pos": 0}

    def tick() -> None:
        pos = state["pos"]
        for _ in range(4):
            cancel(handles[pos])
            handles[pos] = timer(2.0, _noop)
            pos += 1
            if pos == population:
                pos = 0
        state["pos"] = pos
        defer(0.0003, _noop)
        defer(0.0003, _noop)
        defer(0.0005, tick)

    defer(0.0005, tick)


def run_churn(
    kernel: str,
    population: int = DEFAULT_POPULATION,
    duration: float = DEFAULT_DURATION,
    seed: int = 11,
) -> dict:
    """Run the churn microbenchmark on one kernel; returns its metrics.

    ``events_per_s`` counts scheduling *work* retired per wall second:
    dispatches plus cancellations (a cancellation is the operation the
    pattern exists to make cheap; counting dispatches alone would reward
    a kernel for doing cancellation slowly).
    """
    from repro.sim import Simulator

    with kernel_override(kernel):
        sim = Simulator(seed=seed)
    _build_churn(sim, population)
    start = time.perf_counter()
    sim.run(until=duration)
    wall = time.perf_counter() - start
    stats = sim.stats()
    dispatched = stats["events_dispatched"]
    cancelled = stats["timers_cancelled"]
    return {
        "kernel": kernel,
        "population": population,
        "sim_duration_s": duration,
        "wall_s": wall,
        "dispatched": dispatched,
        "cancelled": cancelled,
        "events_per_s": (dispatched + cancelled) / wall,
        "tombstones_skipped": stats["tombstones_skipped"],
        "heap_peak": stats["heap_peak"],
        # Ring only: cancelled slots physically recycled (None on heap).
        "slots_freed": stats.get("slots_freed"),
    }


def run_allocation_probe(
    kernel: str,
    population: int = 2_000,
    duration: float = 0.5,
    seed: int = 11,
) -> dict:
    """tracemalloc snapshot of a short churn run (blocks/bytes allocated).

    Run separately from the timed benchmark — tracemalloc's hooks are
    far too slow to share a measurement with the wall clock.
    """
    from repro.sim import Simulator

    with kernel_override(kernel):
        sim = Simulator(seed=seed)
    _build_churn(sim, population)
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    sim.run(until=duration)
    after, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    stats = sim.stats()
    ops = stats["events_dispatched"] + stats["timers_cancelled"]
    return {
        "kernel": kernel,
        "ops": ops,
        "net_bytes": after - before,
        "peak_bytes": peak,
        "net_bytes_per_op": (after - before) / ops if ops else 0.0,
    }


def run_bft_micro_wall(kernel: str, **kwargs) -> dict:
    """End-to-end §V-B microbenchmark wall clock on one kernel."""
    from repro.workloads.profiler import run_bft_micro

    with kernel_override(kernel):
        start = time.perf_counter()
        result, stats = run_bft_micro(**kwargs)
        wall = time.perf_counter() - start
    return {
        "kernel": kernel,
        "wall_s": wall,
        "result": result,
        "dispatched": stats["events_dispatched"],
    }


def run_kernel_report(
    population: int = DEFAULT_POPULATION,
    duration: float = DEFAULT_DURATION,
    with_bft_micro: bool = True,
    with_allocations: bool = True,
) -> dict:
    """Measure both kernels in one process; returns the ``kernel`` section.

    Raises ``AssertionError`` if the two kernels retired different work
    on the identical seeded workload — the speedup is only meaningful
    over equal work.
    """
    heap = run_churn("heap", population=population, duration=duration)
    ring = run_churn("ring", population=population, duration=duration)
    if (heap["dispatched"], heap["cancelled"]) != (
        ring["dispatched"],
        ring["cancelled"],
    ):
        raise AssertionError(
            f"kernel divergence on identical workload: heap="
            f"{(heap['dispatched'], heap['cancelled'])} ring="
            f"{(ring['dispatched'], ring['cancelled'])}"
        )
    report: dict = {
        "description": (
            "Flat-array ring kernel vs reference heap kernel, measured in "
            "one process on identical seeded workloads. The churn "
            "microbenchmark is the failure-detector/retransmission "
            "pattern (standing timer population, cancel-heavy) driven "
            "through the portable defer/timer/cancel_timer API."
        ),
        # What ``Simulator()`` builds in this process when not told.
        "default_kernel": PERF.kernel,
        "churn_microbench": {
            "heap": heap,
            "ring": ring,
            "speedup": ring["events_per_s"] / heap["events_per_s"],
        },
    }
    if with_allocations:
        report["allocations"] = {
            "heap": run_allocation_probe("heap"),
            "ring": run_allocation_probe("ring"),
        }
    if with_bft_micro:
        heap_e2e = run_bft_micro_wall("heap")
        ring_e2e = run_bft_micro_wall("ring")
        if heap_e2e["result"] != ring_e2e["result"]:
            raise AssertionError(
                "kernels disagree on bft-micro simulation results"
            )
        for entry in (heap_e2e, ring_e2e):
            entry.pop("result")
        report["bft_micro_wall"] = {
            "heap": heap_e2e,
            "ring": ring_e2e,
            "speedup": heap_e2e["wall_s"] / ring_e2e["wall_s"],
        }
    return report


def write_kernel_report(report: dict, path: str | None = None) -> str:
    """Merge ``{"kernel": report}`` into BENCH_PERF.json."""
    from repro.workloads.profiler import REPORT_FILE, write_report

    return write_report({"kernel": report}, path or REPORT_FILE)
