"""Below capacity the ordered path waits only for things that can still happen.

The SCADA leader's batch window equals the LAN model's jitter bound
(``repro.core.config.jitter_bound``): long enough that two requests one
client sent in the same instant always share a PROPOSE, and not a
microsecond of waiting beyond that. What is left of an operation's
latency is then arithmetic — hops, consensus rounds and the cost model's
execution terms — and the tests below do that arithmetic, so the next
timer that makes operations wait for nothing fails a sum, not a review.
"""

from __future__ import annotations

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bftsmart import EchoService, GroupConfig, build_group, build_proxy
from repro.core import (
    DEFAULT_HOP_LATENCY,
    DEFAULT_LOCAL_LATENCY,
    SmartScadaConfig,
    jitter_bound,
    make_network,
    smartscada_costs,
)
from repro.crypto import KeyStore
from repro.obs.trace import install_tracer
from repro.sim import Simulator
from repro.wire import decode, encode
from repro.workloads.generators import UpdateWorkload, WriteWorkload
from repro.workloads.runner import _build

WINDOW = SmartScadaConfig().batch_wait
#: One LAN hop with the jitter's mean.
HOP = DEFAULT_HOP_LATENCY + jitter_bound() / 2
#: PROPOSE, WRITE, ACCEPT.
CONSENSUS = 3 * HOP
COSTS = smartscada_costs()
SEEDS = [1, 2, 3, 4, 5]


def test_the_window_is_the_jitter_bound_of_the_lan_model():
    assert WINDOW == jitter_bound() == jitter_bound(DEFAULT_HOP_LATENCY)
    assert WINDOW == DEFAULT_HOP_LATENCY / 5
    assert SmartScadaConfig().group_config().batch_wait == WINDOW
    # The bare library keeps its own throughput window.
    assert GroupConfig().batch_wait == 0.002


def _traced(seed, item_count):
    sim = Simulator(seed=seed)
    tracer = install_tracer(sim)
    deployment, item_ids = _build("smartscada", sim, item_count, alarms=False)
    return sim, tracer, deployment, item_ids


def _assert_nobody_waited_for_nothing(tracer, leader):
    """Every ``request.pending`` span is at most one window long, unless
    a consensus instance was in flight at the leader when it began."""
    in_flight = [
        (span.start, span.end)
        for span in tracer.spans
        if span.name == "consensus" and span.process == leader.address
    ]
    pending = [span for span in tracer.spans if span.name == "request.pending"]
    idle_arrivals = [
        span
        for span in pending
        if not any(start <= span.start < end for start, end in in_flight)
    ]
    assert len(idle_arrivals) > len(pending) / 2
    assert max(span.end - span.start for span in idle_arrivals) <= WINDOW + 1e-6


@pytest.mark.parametrize("seed", SEEDS)
def test_fig8a_reference_step_latency_is_hops_plus_consensus_plus_execution(seed):
    sim, tracer, deployment, item_ids = _traced(seed, item_count=20)
    latencies = []
    deployment.hmi.on_value_change = lambda _item, value: latencies.append(
        sim.now - value.timestamp
    )
    UpdateWorkload(
        sim, deployment.frontend, item_ids, rate=800.0, normal_value=100
    ).start(duration=1.0)
    sim.run(until=sim.now + 1.2)

    assert len(latencies) >= 800
    _assert_nobody_waited_for_nothing(tracer, deployment.proxy_masters[0].replica)
    # Frontend -> ProxyFrontend -> replicas, consensus, execution,
    # replicas -> ProxyHMI -> HMI.
    floor = (
        2 * DEFAULT_LOCAL_LATENCY
        + 2 * HOP
        + CONSENSUS
        + COSTS.update_processing
        + COSTS.serialization
    )
    assert statistics.median(latencies) == pytest.approx(floor, rel=0.05)


@pytest.mark.parametrize("seed", SEEDS)
def test_fig8c_write_is_two_instances_and_ten_hops(seed):
    sim, tracer, deployment, _items = _traced(seed, item_count=1)
    workload = WriteWorkload(sim, deployment.hmi, "rtu.actuator")
    workload.start(duration=1.0)
    sim.run(stop_on=workload.done, until=sim.now + 30)
    assert workload.failed == 0 and workload.completed >= 99

    proxy_master = deployment.proxy_masters[0]
    _assert_nobody_waited_for_nothing(tracer, proxy_master.replica)
    # Exactly two consensus instances per write, and the Frontend's
    # ItemUpdate + WriteResult pair always in one of them.
    batches = [
        [
            type(proxy_master.service._decode_operation(request.operation)).__name__
            for request in decode(value).requests
        ]
        for _cid, value, _timestamp in proxy_master.replica.decision_log
    ]
    assert (
        batches[-2 * workload.completed :]
        == [["WriteValue"], ["ItemUpdate", "WriteResult"]] * workload.completed
    )
    # HMI -> ProxyHMI -> replicas, consensus, write execution, replicas ->
    # ProxyFrontend -> Frontend and back, consensus, update + write-result
    # execution, replicas -> ProxyHMI -> HMI.
    floor = (
        4 * DEFAULT_LOCAL_LATENCY
        + 4 * HOP
        + 2 * CONSENSUS
        + 2 * (COSTS.write_processing + COSTS.serialization)
        + COSTS.update_processing
        + COSTS.serialization
    )
    assert workload.latencies.summary()["p50"] == pytest.approx(floor, rel=0.05)


# ---------------------------------------------------------------------------
# the coalescing property the window exists for
# ---------------------------------------------------------------------------


def _instances_for_a_back_to_back_pair(seed, window):
    """Consensus instances that order two requests one client sends in
    one instant over the paper's LAN."""
    sim = Simulator(seed=seed)
    net = make_network(sim)
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, batch_wait=window)
    replicas = build_group(sim, net, config, EchoService, keystore)
    proxy = build_proxy(sim, net, "client-0", config, keystore)
    proxy.invoke_ordered(encode(("echo", 1)))
    proxy.invoke_ordered(encode(("echo", 2)))
    sim.run(until=0.1)
    assert replicas[0].stats["executed"] == 2
    return replicas[0].stats["proposals"]


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_a_back_to_back_pair_always_shares_one_propose(seed):
    assert _instances_for_a_back_to_back_pair(seed, jitter_bound()) == 1


#: Of seeds 0-299,999 the one whose pair reaches the leader furthest
#: apart: 0.9963 of the jitter bound. (A window one ulp below the bound
#: has no findable counter-example — the gap is a difference of two
#: ``uniform(0, bound)`` draws — so the recorded one sits 0.5 % below.)
SPLIT_SEED = 60007


def test_a_window_below_the_jitter_bound_splits_a_pair():
    assert _instances_for_a_back_to_back_pair(SPLIT_SEED, 0.995 * jitter_bound()) == 2
    assert _instances_for_a_back_to_back_pair(SPLIT_SEED, jitter_bound()) == 1
