"""Cache effectiveness and kernel counters of the hot path, on one run.

Runs the §V-B microbenchmark once, cold, and checks the *point* of the
hot-path pass: the load-bearing caches must actually be hitting and the
kernel's timer bookkeeping must stay bounded. That the caches change no
simulation result is asserted against recorded outputs in
``tests/test_golden_outputs.py``; wall-clock cost is compared between
commits with ``bench/run.py`` + ``bench/compare.py`` (docs/PERFORMANCE.md).
"""

from __future__ import annotations

from conftest import once, print_table

from repro.perf import PERF, clear_hot_path_caches
from repro.workloads.profiler import run_bft_micro


def test_hot_path_caches_and_kernel_counters(benchmark):
    clear_hot_path_caches()
    _result, kernel = once(benchmark, run_bft_micro)
    caches = PERF.stats_map()

    print_table(
        "cache effectiveness (bft_micro)",
        ["cache", "hits", "misses", "hit rate"],
        [
            [name, s["hits"], s["misses"], f"{s['hit_rate']:.1%}"]
            for name, s in sorted(caches.items())
        ],
    )

    # The caches that carry the speedup must be doing real work. (The
    # codec encode memo is not asserted on: without retransmissions every
    # message object is sealed exactly once, and its payoff is the shared
    # payload bytes object that the other caches key on.)
    assert caches["decode_share"]["hit_rate"] > 0.9, caches["decode_share"]
    assert caches["mac"]["hits"] > 0, caches["mac"]
    assert caches["signing_payload"]["hits"] > 0, caches["signing_payload"]
    assert caches["digest"]["hit_rate"] > 0.5, caches["digest"]

    # Cancelled timers are discarded as they come due, so the pending set
    # stays bounded: the client cancels one retransmission timer per
    # completed invocation.
    assert kernel["timers_cancelled"] > 0
    assert kernel["heap_peak"] < kernel["events_dispatched"]
