"""Backpressure batching: ordering that listens to execution.

A leader holds its pool of unproposed requests while two or more decided
batches already wait for its executor (``Proposer._held_back``).
The rule must be invisible below capacity, must never cost liveness above
it, and must not move what the executor produces when the executor is the
bottleneck. "Parent" in these tests is the same code with the predicate
pinned to ``False`` — the one proposing path, minus the hold.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bftsmart import EchoService, GroupConfig, build_group, build_proxy
from repro.bftsmart.proposer import Proposer
from repro.bftsmart.replica import ServiceReplica
from repro.bftsmart.service import Service
from repro.core import SmartScadaConfig, build_smartscada
from repro.core.system import make_network
from repro.crypto import KeyStore
from repro.net import ConstantLatency, Network
from repro.sim import Simulator
from repro.wire import decode, encode
from repro.workloads import run_update_experiment, run_write_experiment
from tests import test_golden_outputs as golden

#: PROPOSE + WRITE + ACCEPT over ``HOP`` plus the batch wait: the longest
#: a pending request may see an idle executor on the bare-library groups.
HOP = 0.0004
BATCH_WAIT = 0.0005
CONSENSUS_ROUND = BATCH_WAIT + 3 * HOP


@pytest.fixture
def holds(monkeypatch):
    """Every instant the hold fired, as ``(now, replica address)``."""
    fired = []
    predicate = Proposer._held_back

    def counting(self):
        held = predicate(self)
        if held:
            fired.append((self.replica.sim.now, self.replica.address))
        return held

    monkeypatch.setattr(Proposer, "_held_back", counting)
    return fired


def _without_hold(monkeypatch):
    monkeypatch.setattr(Proposer, "_held_back", lambda self: False)


class CostedService(Service):
    """Executes ``(cost_s, tag)`` operations and logs when, for whom."""

    def __init__(self) -> None:
        super().__init__()
        #: ``(completion instant, client id, sequence)`` in execution order.
        self.log: list = []

    def cost_of(self, operation: bytes) -> float:
        return decode(operation)[0]

    def execute(self, operation: bytes, ctx) -> bytes:
        self.log.append((self.replica.sim.now, ctx.client_id, ctx.sequence))
        return operation

    def snapshot(self) -> bytes:
        return encode(len(self.log))

    def install_snapshot(self, data: bytes) -> None:
        pass


def _bare_group(sim, *, service=CostedService, **overrides):
    net = Network(sim, latency=ConstantLatency(HOP))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, batch_wait=BATCH_WAIT, **overrides)
    replicas = build_group(sim, net, config, service, keystore)

    def proxy(name):
        return build_proxy(sim, net, name, config, keystore, invoke_timeout=120.0)

    return net, replicas, proxy


def _open_loop(sim, proxy, operations, gap):
    """Invoke ``operations`` one ``gap`` apart without waiting for replies."""

    def sender():
        for operation in operations:
            proxy.invoke_ordered(operation)
            yield sim.timeout(gap)

    sim.process(sender())


def _watch_executor(sim, replica, until, tick=0.00025):
    """Longest stretch ``replica``'s executor sat idle with work pending."""
    longest = [0.0]

    def sampler():
        idle_since = None
        while sim.now < until:
            starving = replica.executor._exec_idle and bool(replica.pool.pending)
            if not starving:
                idle_since = None
            elif idle_since is None:
                idle_since = sim.now
            else:
                longest[0] = max(longest[0], sim.now - idle_since)
            yield sim.timeout(tick)

    sim.process(sampler())
    return longest


def _assert_exactly_once_in_client_order(replicas, sent: dict) -> None:
    for replica in replicas:
        executed: dict = {}
        for _when, client, sequence in replica.service.log:
            executed.setdefault(client, []).append(sequence)
        assert {c: len(s) for c, s in executed.items()} == sent, replica.address
        for client, sequences in executed.items():
            assert sequences == sorted(set(sequences)), (replica.address, client)


# ---------------------------------------------------------------------------
# (a) below capacity the rule never fires and nothing moves
# ---------------------------------------------------------------------------


def test_golden_schedules_are_recorded_without_a_single_hold(holds):
    # The functions assert the dispatch-log digests, decided streams and
    # state digests recorded before the rule existed.
    golden.test_bft_schedule_and_decided_stream()
    golden.test_scada_schedule_and_state_digests()
    assert holds == []


def _fig8a_ref():
    result = run_update_experiment("smartscada", rate=800.0, duration=1.0, warmup=0.3)
    return result.throughput, result.latency, result.details


def _fig8c_closed_loop():
    result = run_write_experiment("smartscada", duration=1.0, warmup=0.2)
    return result.throughput, result.latency, result.details


def _bare_library_depth_4():
    sim = Simulator(seed=11)
    _net, replicas, proxy = _bare_group(
        sim, service=EchoService, pipeline_depth=4, checkpoint_interval=10_000
    )
    payloads = [encode(("echo", i)) for i in range(600)]
    _open_loop(sim, proxy("load"), payloads, gap=0.0005)
    sim.run(until=2.0)
    streams = [golden._decided_stream(replica) for replica in replicas]
    assert len(streams[0]) == 600 and all(s == streams[0] for s in streams)
    return sim.dispatched, streams[0], [r.stats["proposals"] for r in replicas]


@pytest.mark.parametrize(
    "run",
    [_fig8a_ref, _fig8c_closed_loop, _bare_library_depth_4],
    ids=lambda run: run.__name__,
)
def test_below_capacity_the_hold_never_fires(run, holds, monkeypatch):
    with_rule = run()
    assert holds == []
    _without_hold(monkeypatch)
    assert run() == with_rule


# ---------------------------------------------------------------------------
# (b) overload for ten request timeouts: liveness, order, no starvation
# ---------------------------------------------------------------------------


def test_scada_overload_keeps_the_leader_and_feeds_the_executor(holds):
    timeout = 0.5
    sim = Simulator(seed=1)
    system = build_smartscada(
        sim,
        net=make_network(sim),
        config=SmartScadaConfig(request_timeout=timeout, invoke_timeout=60.0),
    )
    items = [f"rtu.sensor.{i}" for i in range(20)]
    for item in items:
        system.frontend.add_item(item, initial=0)
    system.start()
    seen: dict = {item: [] for item in items}
    system.hmi.on_value_change = lambda item, value: seen[item].append(value.value)
    leader = system.proxy_masters[0].replica
    overload_s = 10 * timeout
    starved = _watch_executor(sim, leader, until=overload_s)
    injected: dict = {item: [] for item in items}

    def load():  # 1200/s against a Master good for ~940/s
        for i in range(int(1200 * overload_s)):
            item = items[i % len(items)]
            injected[item].append(i + 1)
            system.frontend.inject_update(item, i + 1)
            yield sim.timeout(1 / 1200)

    sim.process(load())
    sim.run(until=overload_s)
    backlog_age = sim.now - next(iter(leader.pool.pending.values()))[1]
    sim.run(until=overload_s + 5.0)

    replicas = [pm.replica for pm in system.proxy_masters]
    assert len(holds) > 100  # the rule was in force throughout
    assert [r.synchronizer.changes_completed for r in replicas] == [0] * 4
    assert [r.synchronizer._highest_vote for r in replicas] == [0] * 4  # no suspicion
    clients = [c for proxy in system.proxy_frontends for c in proxy.bft_clients]
    assert sum(c.stats["retransmissions"] for c in clients) == 0
    assert seen == injected  # every update, once, in per-item order
    # Ordering traffic collapsed, the executor never went hungry for it.
    assert leader.stats["executed"] / leader.stats["proposals"] > 20
    assert backlog_age < timeout / 4 + CONSENSUS_ROUND
    assert starved[0] <= 0.002


def test_slow_service_overload_never_ages_a_request_towards_suspicion(holds):
    # batch_max x cost = 1.0 s > request_timeout: a hold released only by
    # the executor would keep requests unproposed for longer than the
    # followers' patience. The age bound is what prevents it.
    timeout, cost, batch_max = 0.5, 0.02, 50
    sim = Simulator(seed=2)
    _net, replicas, proxy = _bare_group(
        sim, request_timeout=timeout, sync_timeout=1.0, batch_max=batch_max
    )
    overload_s = 10 * timeout
    clients = [proxy(f"client-{i}") for i in range(4)]
    per_client = int(25 * overload_s)  # 4 x 25/s offered, 50/s capacity
    for client in clients:
        _open_loop(
            sim, client, [encode((cost, i)) for i in range(per_client)], gap=1 / 25
        )
    leader = replicas[0]
    starved = _watch_executor(sim, leader, until=overload_s)
    oldest_unproposed = [0.0]

    def ages():
        while sim.now < overload_s:
            if leader.pool.unproposed:
                _request, arrival = next(iter(leader.pool.unproposed.values()))
                oldest_unproposed[0] = max(oldest_unproposed[0], sim.now - arrival)
            yield sim.timeout(0.001)

    sim.process(ages())
    sim.run(until=overload_s + 4 * per_client * cost)

    assert len(holds) > 100
    assert [r.synchronizer.changes_completed for r in replicas] == [0] * 4
    assert [r.synchronizer._highest_vote for r in replicas] == [0] * 4  # no suspicion
    assert sum(c.stats["retransmissions"] for c in clients) == 0
    _assert_exactly_once_in_client_order(
        replicas, {c.client_id: per_client for c in clients}
    )
    assert timeout / 8 < oldest_unproposed[0] <= timeout / 4 + 0.001
    assert starved[0] <= CONSENSUS_ROUND + 0.0002


# ---------------------------------------------------------------------------
# (c) the leader dies mid-hold: eager successor, nothing lost
# ---------------------------------------------------------------------------


def test_leader_crash_during_a_hold_hands_over_to_an_eager_leader(holds, monkeypatch):
    timeout, cost = 0.4, 0.004
    sim = Simulator(seed=3)
    net, replicas, proxy = _bare_group(sim, request_timeout=timeout, sync_timeout=1.0)
    client = proxy("client-0")
    total = 900
    _open_loop(sim, client, [encode((cost, i)) for i in range(total)], gap=0.002)
    old, new = replicas[0], replicas[1]
    held_by_old = []

    def crash():
        yield sim.timeout(0.3)
        while not (old.proposer._held_back() and len(old.pool.unproposed) >= 3):
            yield sim.timeout(0.0001)
        held_by_old.extend(old.pool.unproposed)
        net.crash(old.address)

    sim.process(crash())
    proposals = []  # (now, batches queued for the executor, age of the youngest)
    propose_batch = ServiceReplica._propose_batch

    def recording(self):
        if self is new:
            youngest = max(arrival for _request, arrival in self.pool.unproposed.values())
            proposals.append((sim.now, len(self.executor.queue), sim.now - youngest))
        propose_batch(self)

    monkeypatch.setattr(ServiceReplica, "_propose_batch", recording)
    sim.run(until=0.002 * total + total * cost + 5.0)

    assert held_by_old
    live = replicas[1:]
    assert [r.synchronizer.changes_completed for r in live] == [1] * 3
    assert new.is_leader
    installed = new.synchronizer.synced_at
    eager_until = installed + timeout
    # Proposes as soon as SYNC lands (one batch wait), backlog or not ...
    assert installed <= proposals[0][0] <= installed + BATCH_WAIT + 1e-9
    # ... and for one request_timeout keeps proposing what it would
    # otherwise hold: two batches queued, nothing in the pool old enough.
    assert [
        when
        for when, queued, youngest in proposals
        if when < eager_until and queued >= 2 and youngest < timeout / 4
    ]
    held_by_new = [when for when, address in holds if address == new.address]
    # Past the window the new leader holds like any other.
    assert held_by_new and min(held_by_new) >= eager_until
    _assert_exactly_once_in_client_order(live, {client.client_id: total})
    assert set(held_by_old) <= {(c, s) for _when, c, s in new.service.log}


# ---------------------------------------------------------------------------
# (d) the threshold: the reference rate queues nothing, and one queued
#     batch is the normal state from the first rate that queues anything
# ---------------------------------------------------------------------------

#: Lowest whole updates/s at which the leader ever finds a decided batch
#: waiting for its executor when it considers proposing: the first rate
#: above the replicated Master's 943.5/s capacity. Up to 943/s — the 800/s
#: Fig 8(a) reference step included — every request is proposed on
#: arrival and finds the queue empty.
DEPTH_ONE_RATE = 944.0
#: Measured at DEPTH_ONE_RATE, per seed: (proposing decisions let through
#: past one queued batch, holds). Proposing on arrival, over four of the
#: first for every hold; with the former 50 us batch window it was over
#: five (4,176 : 565 on seed 1). Seed 1 read (2052, 495) until the
#: protocol messages stopped naming their own sender: the smaller frames
#: shift arrival times by nanoseconds. Both seeds lost two more decisions
#: (2050 and 2038 before) when the PROPOSE began to name its requests
#: instead of carrying them, for the same reason; the holds did not move.
DEPTH_ONE_COUNTS = {1: (2048, 493), 2: (2036, 475)}


@pytest.mark.parametrize("seed", [1, 2])
def test_the_hold_does_not_fire_at_the_update_reference_rate(seed, holds, monkeypatch):
    depths = []  # executor queue at every proposing decision that was let through
    predicate = Proposer._held_back

    def watching(self):
        held = predicate(self)
        if not held:
            depths.append(len(self.replica.executor.queue))
        return held

    monkeypatch.setattr(Proposer, "_held_back", watching)

    def run(rate):
        del depths[:], holds[:]
        run_update_experiment(
            "smartscada", rate=rate, duration=2.0, warmup=0.5, seed=seed
        )

    run(800.0)
    assert holds == []
    assert max(depths) == 0
    run(DEPTH_ONE_RATE - 1)
    assert holds == [] and max(depths) == 0  # ... so DEPTH_ONE_RATE is the lowest
    # The threshold-of-1 counterfactual, at the rate where depth 1 occurs:
    # the leader proposes past one queued batch (that batch is what keeps
    # the executor fed while the next is ordered) several times for every
    # time it holds — each of which a threshold of 1 would have held.
    run(DEPTH_ONE_RATE)
    assert max(depths) == 1
    assert (depths.count(1), len(holds)) == DEPTH_ONE_COUNTS[seed]
    assert depths.count(1) > 4 * len(holds) > 0


# ---------------------------------------------------------------------------
# (e) property: when the executor is the bottleneck, the hold is invisible
# ---------------------------------------------------------------------------


def _run_script(script, depth):
    sim = Simulator(seed=0)
    _net, replicas, proxy = _bare_group(sim, pipeline_depth=depth, batch_max=16)
    client = proxy("client-0")

    def sender():
        for index, (gap, cost) in enumerate(script):
            yield sim.timeout(gap)
            client.invoke_ordered(encode((cost, index)))

    sim.process(sender())
    sim.run(until=sum(gap + cost for gap, cost in script) + 1.0)
    logs = [replica.service.log for replica in replicas]
    assert all(len(log) == len(script) for log in logs)
    return logs, sum(r.stats["proposals"] for r in replicas)


#: Costs of at least two consensus rounds, arrivals at least twice as
#: fast as the cheapest cost: from the second request on the executor
#: always has the next batch decided before it finishes the current one.
saturating_scripts = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=CONSENSUS_ROUND),
        st.floats(min_value=2 * CONSENSUS_ROUND, max_value=6 * CONSENSUS_ROUND),
    ),
    min_size=8,
    max_size=60,
)


@given(script=saturating_scripts, depth=st.sampled_from([1, 4]))
@settings(max_examples=25, deadline=None)
def test_hold_on_and_parent_execute_the_same_requests_at_the_same_instants(
    script, depth
):
    with pytest.MonkeyPatch.context() as patch:
        with_rule, proposals = _run_script(script, depth)
        _without_hold(patch)
        parent, parent_proposals = _run_script(script, depth)
    assert with_rule == parent
    assert proposals <= parent_proposals
