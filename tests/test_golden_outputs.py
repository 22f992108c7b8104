"""The caches are behaviour-invisible: four outputs match the legacy path's.

Every cache on the per-message path (codec memo, MAC templates and memo,
digest LRU, serialize-once broadcast, shared decode) must change no byte
on the wire, no event order and no result. That used to be shown by
running a switched-off copy of each path; the copy is gone, and what it
produced is recorded in ``tests/golden/outputs.json``:

(a) ``campaign`` — fingerprint and hop-trace digest of a chaos campaign;
(b) ``counter_trace_sha256`` — every observable of a replicated-counter run;
(c) ``bft_micro`` — throughput and replica counters of the §V-B firehose;
(d) ``encodings`` — the encoded bytes of a sample of every wire type.

All four are kernel-independent: CI asserts them on the ring and on the
heap kernel. A change that is *meant* to move one (a new wire type, a
protocol change) updates the file from the failing assertion's left side.
"""

from __future__ import annotations

import hashlib

from repro.bftsmart import CounterService, GroupConfig, build_group, build_proxy
from repro.chaos import get_scenario, run_campaign
from repro.chaos.campaign import CampaignConfig
from repro.crypto import KeyStore
from repro.net import ConstantLatency, Network
from repro.perf import clear_hot_path_caches
from repro.sim import Simulator
from repro.wire import decode, encode
from repro.workloads.profiler import run_bft_micro
from tests.golden import GOLDEN
from tests.test_wire_codec_caching import _REGISTERED, _ids, sample_instance


def test_campaign_fingerprint_and_trace_digest():
    scenario = get_scenario("drop-write-value")
    config = scenario.config(CampaignConfig(seed=5, trace=True))
    report = run_campaign(scenario.schedule(), config)
    assert {
        "fingerprint": report.fingerprint(),
        "trace_digest": report.trace_digest,
    } == GOLDEN["campaign"]


def _replicated_counter_trace():
    """Run a small replicated-counter workload; return its full outcome.

    The returned tuple captures everything observable: per-request
    results in completion order, final replica states, the simulated
    clock and the kernel counters. If any optimisation reordered even
    one event, the dispatch counts and completion times would differ.
    """
    clear_hot_path_caches()
    sim = Simulator(seed=7)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, request_timeout=0.5, sync_timeout=1.0)
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)

    results = []

    def client():
        for _ in range(15):
            raw = yield proxy.invoke_ordered(encode(("add", 1)))
            results.append((sim.now, decode(raw)))
        return None

    sim.run_process(client(), until=60)
    return (
        tuple(results),
        tuple(r.service.value for r in replicas),
        tuple(sorted(replicas[0].stats.items())),
        sim.now,
        sim.dispatched,
    )


def test_optimizations_change_no_event_order():
    """Same seed, caches on: the outcome recorded with every cache off."""
    outcome = _replicated_counter_trace()
    assert (
        hashlib.sha256(repr(outcome).encode()).hexdigest()
        == GOLDEN["counter_trace_sha256"]
    )


def test_bft_micro_rate_and_replica_stats():
    (rate, replica_stats), _kernel = run_bft_micro(warmup=0.05, window=0.1)
    assert {"rate": rate, "replica_stats": replica_stats} == GOLDEN["bft_micro"]


def test_encoded_bytes_of_every_registered_type():
    digests = (
        hashlib.sha256(encode(sample_instance(cls, 5))).hexdigest()
        for _tid, cls in _REGISTERED
    )
    assert dict(zip(_ids(), digests)) == GOLDEN["encodings"]
