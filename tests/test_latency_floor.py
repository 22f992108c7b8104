"""Below capacity the ordered path waits only for things that can still happen.

The SCADA leader proposes on arrival: it has no batch window, because
what the Frontend hands its proxy in one instant (an ItemUpdate and the
WriteResult it caused) reaches the replicas in one envelope and shares a
PROPOSE whatever the LAN jitter. What is left of an operation's latency
is then arithmetic — hops, consensus rounds and the cost model's
execution terms — and the tests below do that arithmetic, so the next
timer that makes operations wait for nothing fails a sum, not a review.
The bare library keeps a window, and its two tests at the bottom show
why: two requests sent one by one need it to share a PROPOSE. The last
two pin what a PROPOSE costs on the wire: it names its requests, which
every follower already holds, so its size does not grow with theirs, and
at ``bft-micro``'s shape the median is the same hop arithmetic with the
PROPOSE charged its reference size.
"""

from __future__ import annotations

import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bftsmart import EchoService, GroupConfig, build_group, build_proxy
from repro.bftsmart.messages import ClientRequest, Propose, Reply, Sealed, WriteMsg
from repro.core import (
    DEFAULT_HOP_LATENCY,
    DEFAULT_LOCAL_LATENCY,
    SmartScadaConfig,
    jitter_bound,
    make_network,
    smartscada_costs,
)
from repro.crypto import KeyStore
from repro.crypto.mac import MAC_SIZE
from repro.obs.trace import install_tracer
from repro.sim import Simulator
from repro.wire import decode, encode
from repro.workloads.generators import UpdateWorkload, WriteWorkload
from repro.workloads.runner import _build

#: One LAN hop with the jitter's mean.
HOP = DEFAULT_HOP_LATENCY + jitter_bound() / 2
#: PROPOSE, WRITE, ACCEPT.
CONSENSUS = 3 * HOP
COSTS = smartscada_costs()
SEEDS = [1, 2, 3, 4, 5]


def test_scada_proposes_on_arrival():
    assert SmartScadaConfig().group_config().batch_wait == 0.0
    # The bare library keeps its own throughput window.
    assert GroupConfig().batch_wait == 0.002


def _traced(seed, item_count):
    sim = Simulator(seed=seed)
    tracer = install_tracer(sim)
    deployment, item_ids = _build("smartscada", sim, item_count, alarms=False)
    return sim, tracer, deployment, item_ids


def _assert_nobody_waited_for_nothing(tracer, leader):
    """Every ``request.pending`` span ends within a microsecond of its
    start, unless a consensus instance was in flight at the leader when it
    began. (An instance that starts at the arrival instant is the one
    that request opened.)"""
    in_flight = [
        (span.start, span.end)
        for span in tracer.spans
        if span.name == "consensus" and span.process == leader.address
    ]
    pending = [span for span in tracer.spans if span.name == "request.pending"]
    idle_arrivals = [
        span
        for span in pending
        if not any(start < span.start < end for start, end in in_flight)
    ]
    assert len(idle_arrivals) > len(pending) / 2
    assert max(span.end - span.start for span in idle_arrivals) <= 1e-6


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
    assert statistics.median(latencies) == pytest.approx(floor, rel=0.01)


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
    assert workload.latencies.summary()["p50"] == pytest.approx(floor, rel=0.01)


# ---------------------------------------------------------------------------
# coalescing: one envelope without a window, or a window of one jitter
# ---------------------------------------------------------------------------


def _instances_for_a_back_to_back_pair(seed, window, together=False):
    """Consensus instances that order two requests one client sends in
    one instant over the paper's LAN: one by one, or handed over together
    (one envelope)."""
    sim = Simulator(seed=seed)
    net = make_network(sim)
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, batch_wait=window)
    replicas = build_group(sim, net, config, EchoService, keystore)
    proxy = build_proxy(sim, net, "client-0", config, keystore)
    operations = [encode(("echo", 1)), encode(("echo", 2))]
    if together:
        proxy.invoke_ordered_together(operations)
    else:
        proxy.invoke_ordered(operations[0])
        proxy.invoke_ordered(operations[1])
    sim.run(until=0.1)
    assert replicas[0].stats["executed"] == 2
    return replicas[0].stats["proposals"]


@given(seed=st.integers(min_value=0, max_value=2**32))
@settings(max_examples=200, deadline=None)
def test_a_pair_handed_over_together_shares_one_propose_without_a_window(seed):
    assert _instances_for_a_back_to_back_pair(seed, 0.0, together=True) == 1


def test_without_a_window_a_pair_sent_one_by_one_splits():
    assert _instances_for_a_back_to_back_pair(0, 0.0) == 2


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


# ---------------------------------------------------------------------------
# PROPOSE by reference
# ---------------------------------------------------------------------------


def _propose_sizes(count: int, payload: int) -> set:
    """Wire sizes of the PROPOSEs that order ``count`` requests of
    ``payload`` bytes handed over together."""
    sim = Simulator(seed=1)
    net = make_network(sim, trace=True)
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, batch_wait=0.0)
    build_group(sim, net, config, EchoService, keystore)
    proxy = build_proxy(sim, net, "client-0", config, keystore)
    rng = random.Random(count)
    proxy.invoke_ordered_together([rng.randbytes(payload) for _ in range(count)])
    sim.run(until=0.1)
    return {hop.size for hop in net.trace.hops if hop.kind == "Propose"}


def test_a_propose_is_sized_by_its_keys_not_its_requests():
    for count in (1, 4, 16, 64):
        [size] = _propose_sizes(count, 1024)
        assert _propose_sizes(count, 8) == {size}
        assert size < 64 * count + 128


#: ``bft-micro``'s shape: 1 KiB echo requests at 25k req/s, 1 ms window.
MICRO_RATE, MICRO_WAIT, MICRO_PAYLOAD = 25_000.0, 0.001, 1024


def _envelope_size(message, sender: str, receivers) -> int:
    tags = {receiver: bytes(MAC_SIZE) for receiver in receivers}
    return len(encode(Sealed(sender=sender, payload=encode(message), tags=tags)))


#: The LAN model's serialization rate: 1 Gbit/s (``LanLatency``'s default).
BANDWIDTH = 125_000_000.0


def _hop(size: int) -> float:
    return HOP + size / BANDWIDTH


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_bft_micro_median_is_hops_plus_window_with_a_propose_by_reference(seed):
    sim = Simulator(seed=seed)
    net = make_network(sim)
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, batch_max=500, batch_wait=MICRO_WAIT)
    build_group(sim, net, config, EchoService, keystore)
    proxy = build_proxy(sim, net, "load-client", config, keystore, invoke_timeout=5.0)
    rng = random.Random(seed)
    latencies = []

    def load():
        for op in range(5000):
            yield sim.timeout(1.0 / MICRO_RATE)
            sent = sim.now
            operation = op.to_bytes(8, "big") + rng.randbytes(MICRO_PAYLOAD - 8)
            proxy.invoke_ordered(operation).add_callback(
                lambda _event, sent=sent: latencies.append(sim.now - sent)
            )

    sim.process(load())
    sim.run(until=sim.now + 5000 / MICRO_RATE + 0.5)
    assert len(latencies) == 5000

    client, leader = proxy.client_id, "replica-0"
    followers = ("replica-1", "replica-2", "replica-3")
    request = ClientRequest(
        client, 4999, bytes(MICRO_PAYLOAD), client, False, bytes(MAC_SIZE)
    )
    # A window holds the requests of one batch_wait plus the one that opened it.
    window = MICRO_WAIT + 1 / MICRO_RATE
    keys = tuple((client, 4999 - i) for i in range(round(window * MICRO_RATE)))
    propose = Propose(0, 0, keys, bytes(20), 0.0)
    vote = WriteMsg(0, 0, bytes(20))
    reply = Reply(client, 4999, bytes(MICRO_PAYLOAD), 0, 0)
    floor = (
        _hop(_envelope_size(request, client, (leader,)))
        + window / 2
        + _hop(_envelope_size(propose, leader, followers))
        + 2 * _hop(_envelope_size(vote, leader, followers))
        + _hop(_envelope_size(reply, leader, (client,)))
    )
    # The warm-up fifth aside.
    assert statistics.median(latencies[1000:]) == pytest.approx(floor, rel=0.02)
