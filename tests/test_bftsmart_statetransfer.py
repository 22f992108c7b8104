"""Focused tests for the state-transfer protocol."""

import dataclasses

import pytest

from repro.bftsmart import (
    CounterService,
    GroupConfig,
    ServiceReplica,
    StateReply,
    StateRequest,
    WriteMsg,
    build_group,
    build_proxy,
)
from repro.bftsmart.acceptor import FUTURE_SHARE, FUTURE_WINDOW
from repro.crypto import KeyStore
from repro.net import ConstantLatency, Network
from repro.sim import Simulator
from repro.storage import ReplicaStorage
from repro.wire import decode, encode


def make_world(seed=1, checkpoint_interval=5, **extra):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(
        n=4, f=1, checkpoint_interval=checkpoint_interval,
        request_timeout=0.5, **extra
    )
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    return sim, net, replicas, proxy


def run_adds(sim, proxy, count):
    def client():
        result = None
        for _ in range(count):
            raw = yield proxy.invoke_ordered(encode(("add", 1)))
            result = decode(raw)
        return result

    return sim.run_process(client(), until=sim.now + 120)


def converge(sim, replicas, seconds=10.0):
    deadline = sim.now + seconds
    while sim.now < deadline:
        sim.run(until=sim.now + 0.5)
        if len({r.last_decided for r in replicas}) == 1:
            return True
    return False


def test_recovering_replica_replays_from_checkpoint_plus_log():
    sim, net, replicas, proxy = make_world()
    net.crash("replica-3")
    run_adds(sim, proxy, 12)  # checkpoints at cid 4 and 9
    net.recover("replica-3")
    run_adds(sim, proxy, 1)
    assert converge(sim, replicas)
    assert replicas[3].service.value == 13
    assert replicas[3].state_transfer.completed >= 1
    # It replayed from a checkpoint, not from genesis.
    assert replicas[3].checkpoint_cid >= 4


def test_fresh_replica_can_join_from_genesis():
    sim, net, replicas, proxy = make_world(checkpoint_interval=1000)
    net.crash("replica-2")
    run_adds(sim, proxy, 8)
    net.recover("replica-2")
    run_adds(sim, proxy, 1)
    assert converge(sim, replicas)
    # No checkpoint ever happened: the full decision log replayed.
    assert replicas[2].service.value == 9


def test_state_requests_are_answered_by_peers():
    sim, net, replicas, proxy = make_world()
    run_adds(sim, proxy, 7)
    served_before = replicas[0].channel.rejected
    # A replica explicitly asks for state.
    replicas[3].state_transfer.notice_gap(100)
    sim.run(until=sim.now + 2)
    # It got answers (grouping may or may not install given the fake gap).
    assert len(replicas[3].state_transfer._replies) >= 2


def test_single_lying_state_reply_cannot_install():
    """State installs need f+1 identical replies; one forged reply from a
    Byzantine peer is never enough and never matches the honest ones."""
    sim, net, replicas, proxy = make_world()
    run_adds(sim, proxy, 6)
    # Knock replica-3 out and let it recover while replica-0 forges its
    # state replies (drop them instead: an opaque Sealed tamper would just
    # fail the MAC, which is equivalent for the vote).
    from repro.net import Drop

    net.crash("replica-3")
    run_adds(sim, proxy, 6)
    net.faults.add(Drop(src="replica-0", kind="StateReply"))
    net.recover("replica-3")
    run_adds(sim, proxy, 1)
    assert converge(sim, replicas)
    # Two honest replies (replica-1, replica-2) still satisfy f+1 = 2.
    assert replicas[3].service.value == 13


def test_stale_gap_notice_aborts_cleanly():
    sim, net, replicas, proxy = make_world()
    run_adds(sim, proxy, 5)
    replica = replicas[1]
    # Claim a gap at a cid everyone has already decided.
    replica.state_transfer._last_request_at = -1000.0
    replica.state_transfer.notice_gap(replica.next_cid + 1)
    sim.run(until=sim.now + 2)
    assert not replica.state_transfer.in_progress
    # State unchanged, no bogus rollback.
    assert replica.service.value == 5


def test_retry_interval_comes_from_group_config():
    """The retry pace is deployment configuration, not a class constant."""
    sim, net, replicas, proxy = make_world(state_retry_interval=0.125)
    for replica in replicas:
        assert replica.state_transfer.retry_interval == 0.125
    with pytest.raises(ValueError):
        GroupConfig(n=4, f=1, state_retry_interval=0.0)


def test_retry_interval_throttles_repeat_requests():
    sim, net, replicas, proxy = make_world(state_retry_interval=5.0)
    run_adds(sim, proxy, 3)
    replica = replicas[1]
    transfer = replica.state_transfer
    transfer._last_request_at = sim.now  # as if a request just went out
    served_before = sum(r.state_transfer.full_served +
                        r.state_transfer.partial_served for r in replicas)
    transfer.notice_gap(replica.next_cid + 3)
    sim.run(until=sim.now + 1)
    # Inside the interval: no new request hit the wire, a retry is armed.
    served_after = sum(r.state_transfer.full_served +
                       r.state_transfer.partial_served for r in replicas)
    assert served_after == served_before
    assert transfer._retry_scheduled


def test_notice_gap_force_requests_at_the_waiting_slot():
    """``force=True`` (the retry path) must re-request even when the
    observed cid equals ``next_cid``: that instance may have decided at
    the peers during our install, after which no further traffic would
    ever re-open the gap."""
    sim, net, replicas, proxy = make_world()
    run_adds(sim, proxy, 4)
    replica = replicas[2]
    transfer = replica.state_transfer
    transfer._last_request_at = -1000.0

    transfer.notice_gap(replica.next_cid)  # not a gap without force
    assert not transfer.in_progress
    transfer.notice_gap(replica.next_cid, force=True)
    assert transfer.in_progress


def test_transfer_completing_during_leader_change_adopts_new_view():
    """A recovering replica whose transfer lands while the group is
    electing a new leader must adopt the regency its peers converged on
    and keep participating (retry-driven re-request included)."""
    sim, net, replicas, proxy = make_world(state_retry_interval=0.2)
    # The straggler misses a stretch of decisions...
    net.crash("replica-3")
    run_adds(sim, proxy, 6)
    net.recover("replica-3")
    # ...and the instant it returns, the leader dies: its state transfer
    # now races the regency election (quorum needs the straggler, so the
    # group only makes progress once its transfer lands and it votes).
    net.crash("replica-0")
    run_adds(sim, proxy, 3)
    live = [r for r in replicas if r.address != "replica-0"]
    deadline = sim.now + 30
    while sim.now < deadline:
        sim.run(until=sim.now + 0.5)
        if len({r.last_decided for r in live}) == 1:
            break
    assert len({r.last_decided for r in live}) == 1
    straggler = replicas[3]
    assert straggler.service.value == replicas[1].service.value == 9
    assert straggler.state_transfer.completed >= 1
    # It converged onto the post-election regency, not the stale one.
    top = max(r.synchronizer.regency for r in live)
    assert top > 0
    assert straggler.synchronizer.regency == top


@pytest.mark.parametrize(
    "checkpoint_interval, shape",
    [(1000, "partial_installs"), (4, "full_installs")],
)
def test_every_replica_executes_each_entry_with_the_same_context(
    checkpoint_interval, shape
):
    """Live consensus, a disk restart and a state transfer (of either
    shape) hand the executor the same entry: every replica and every
    incarnation must execute each ``(cid, order)`` with an equal
    :class:`MessageContext`, apart from the executing replica's address."""
    contexts: dict = {}

    class Recording(CounterService):
        def execute(self, operation, ctx):
            fields = dataclasses.asdict(ctx)
            del fields["replica"]
            contexts.setdefault(ctx.order_key, set()).add(
                tuple(sorted(fields.items()))
            )
            return super().execute(operation, ctx)

    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(
        n=4, f=1, checkpoint_interval=checkpoint_interval,
        request_timeout=0.5, sync_timeout=1.0,
    )
    storages = {i: ReplicaStorage(a) for i, a in enumerate(config.addresses)}
    replicas = build_group(
        sim, net, config, Recording, keystore, storages=storages
    )
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    run_adds(sim, proxy, 3)
    # The leader dies under traffic: cids 3-7 decide under regency 1...
    net.crash("replica-0")
    run_adds(sim, proxy, 5)
    assert replicas[1].synchronizer.regency == 1
    # ...and it comes back, catching up by state transfer.
    net.recover("replica-0")
    run_adds(sim, proxy, 3)
    assert converge(sim, replicas)
    assert getattr(replicas[0].state_transfer, shape) >= 1

    # Separately, a replica power-cycles and replays its WAL.
    old = replicas[2]
    old.halt()
    storages[2].crash("intact")
    fresh = ServiceReplica(
        sim=sim, net=net, address=old.address, config=config,
        service=Recording(), keystore=keystore, view=old.view,
        storage=storages[2],
    )
    fresh.recover_from_disk()
    assert fresh.recovered_from_disk.entries
    fresh.state_transfer.bootstrap()
    replicas[2] = fresh
    run_adds(sim, proxy, 2)
    assert converge(sim, replicas)
    assert {r.service.value for r in replicas} == {13}

    disagreements = sorted(key for key, seen in contexts.items() if len(seen) > 1)
    assert disagreements == []


def test_restarted_leader_rejoins_consensus_while_traffic_flows():
    """A leader that dies under a continuous open-loop client and reboots
    from its disk comes back at regency 0, behind a group that moved to
    regency 1. Its transfer's ``f+1`` replies carry the live regency: it
    must adopt it, catch up within a second of the restart while requests
    keep arriving, and then decide slots through live consensus."""
    sim = Simulator(seed=3)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, request_timeout=0.5, sync_timeout=1.0)
    storages = {i: ReplicaStorage(a) for i, a in enumerate(config.addresses)}
    replicas = build_group(sim, net, config, CounterService, keystore, storages=storages)
    proxy = build_proxy(sim, net, "client-1", config, keystore, invoke_timeout=0.3)
    interval, traffic_ends = 0.005, 5.0

    def open_loop():
        while sim.now < traffic_ends:
            proxy.invoke_ordered(encode(("add", 1)))
            yield sim.timeout(interval)

    sim.process(open_loop())
    sim.run(until=1.0)
    leader = replicas[0]
    assert leader.is_leader
    leader.halt()
    storages[0].crash("intact")
    sim.run(until=2.5)
    peers = replicas[1:]
    assert {r.regency for r in peers} == {1}

    fresh = ServiceReplica(
        sim=sim, net=net, address=leader.address, config=config,
        service=CounterService(), keystore=keystore, view=leader.view,
        storage=storages[0],
    )
    fresh.recover_from_disk()
    fresh.state_transfer.bootstrap()
    restart = sim.now
    rejoined = None
    while sim.now < restart + 1.0:
        sim.run(until=sim.now + 0.005)
        frontier = max(r.last_decided for r in peers)
        if fresh.last_decided >= frontier and fresh.executed_cid >= frontier:
            rejoined = sim.now
            break
    assert rejoined is not None, "no rejoin within 1.0 s of the restart"
    assert rejoined < traffic_ends
    assert fresh.regency == 1
    decided_live = fresh.stats["decided"]
    sim.run(until=traffic_ends)
    # From then on it votes in the stream instead of chasing it.
    assert fresh.stats["decided"] > decided_live
    sim.run(until=traffic_ends + 2.0)
    assert {r.regency for r in [fresh, *peers]} == {1}
    assert len({r.last_decided for r in [fresh, *peers]}) == 1
    assert fresh.service.value == peers[0].service.value


def test_single_state_reply_claiming_a_higher_regency_is_not_adopted():
    """One Byzantine peer answers a transfer with the honest content but a
    higher regency. Its reply matches nobody's, so the straggler installs
    from the honest ``f+1`` and keeps the regency they vouch for."""
    sim, net, replicas, proxy = make_world()
    run_adds(sim, proxy, 4)
    net.crash("replica-3")
    run_adds(sim, proxy, 4)
    net.recover("replica-3")
    straggler = replicas[3]
    transfer = straggler.state_transfer
    genuine = transfer.on_reply
    forged = []

    def on_reply(message, sender):
        if sender == "replica-0":
            # The Byzantine peer's own reply, authenticated but lying.
            message = dataclasses.replace(message, regency=7)
            forged.append(message)
        genuine(message, sender)

    straggler.dispatch[StateReply] = on_reply
    transfer.notice_gap(straggler.next_cid + 1)
    sim.run(until=sim.now + 1)
    assert forged
    assert transfer.completed >= 1
    assert straggler.last_decided == replicas[1].last_decided
    assert straggler.regency == 0
    assert straggler.synchronizer.adopt_regency(0) is False


def test_flood_of_epoch_ahead_votes_stays_within_its_bound():
    """While a transfer runs, votes of a regency ahead of ours are held in
    the future buffer for replay, each member within its
    ``FUTURE_SHARE``. A peer flooding forged epoch-ahead votes only
    fills its own share and cannot crowd out the others."""
    sim, net, replicas, proxy = make_world()
    run_adds(sim, proxy, 3)
    straggler = replicas[3]
    straggler.state_transfer.notice_gap(straggler.next_cid + 1, force=True)
    assert straggler.state_transfer.in_progress
    head = straggler.next_cid
    share = FUTURE_SHARE
    assert share <= 3 * FUTURE_WINDOW
    for round_ in range(4):
        for offset in range(FUTURE_WINDOW + 10):
            replicas[0].channel.send(
                straggler.address,
                WriteMsg(
                    cid=head + offset,
                    epoch=5 + round_,
                    value_digest=bytes([offset % 256]) * 32,
                ),
            )
    replicas[1].channel.send(
        straggler.address,
        WriteMsg(cid=head, epoch=5, value_digest=b"\x01" * 32),
    )
    sim.run(until=sim.now + 0.002)
    held = straggler.acceptor.future_held
    assert held["replica-0"] == share
    assert held["replica-1"] == 1
    assert sum(held.values()) <= straggler.view.n * share


def test_transfer_from_replicas_mid_sync_hands_over_only_a_synced_regency():
    """Peers that installed a regency through STOPs but have not yet had
    its SYNC do not vouch for it: a straggler that transfers from them
    stays on the regency they last synced (the SYNC's value recovery has
    not run). Once the SYNC lands at the peers, the next transfer hands
    the regency over."""
    sim, net, replicas, proxy = make_world(sync_timeout=30.0)
    run_adds(sim, proxy, 4)
    net.crash("replica-3")
    run_adds(sim, proxy, 4)
    # Regency 1's leader collects its STOP-DATA but holds back the SYNC.
    new_leader = replicas[1].synchronizer
    resolve, held = new_leader._resolve, []
    new_leader._resolve = lambda regency, collected: held.append((regency, collected))
    for replica in replicas[:3]:
        replica.synchronizer.suspect("silent")
    sim.run(until=sim.now + 0.05)
    assert held
    assert all(r.regency == 1 and r.synchronizer.in_progress for r in replicas[:3])
    net.recover("replica-3")
    straggler = replicas[3]
    straggler.state_transfer.notice_gap(straggler.next_cid + 1)
    sim.run(until=sim.now + 0.05)
    assert straggler.state_transfer.completed >= 1
    assert straggler.last_decided == replicas[0].last_decided
    assert straggler.regency == 0
    assert not straggler.synchronizer.in_progress
    # The SYNC goes out; traffic under regency 1 reveals the gap.
    resolve(*held[0])
    sim.run(until=sim.now + 0.01)
    assert {r.synchronizer.synced_regency for r in replicas[:3]} == {1}
    run_adds(sim, proxy, 12)
    assert converge(sim, replicas)
    assert straggler.regency == 1


def test_restarted_replica_skips_its_execution_backlog_to_a_peer_checkpoint():
    """A replica that reboots from its disk votes again as soon as its
    transfer lands, but its executor must still replay the WAL and the
    transferred log at the live cost, slower than the stream leaves room
    for. At the next checkpoint its peers take it fetches that checkpoint
    (``f+1`` matching) and drops the backlog below it, so its state is
    back with its peers' within a second of the restart, while traffic
    still flows."""

    class SlowCounter(CounterService):
        def cost_of(self, operation):
            return 0.003  # 333 executions/s against a 200 requests/s stream

    sim = Simulator(seed=3)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(
        n=4, f=1, checkpoint_interval=600, request_timeout=0.5, sync_timeout=1.0
    )
    storages = {i: ReplicaStorage(a) for i, a in enumerate(config.addresses)}
    replicas = build_group(sim, net, config, SlowCounter, keystore, storages=storages)
    proxy = build_proxy(sim, net, "client-1", config, keystore, invoke_timeout=0.3)
    traffic_ends = 5.0

    def open_loop():
        while sim.now < traffic_ends:
            proxy.invoke_ordered(encode(("add", 1)))
            yield sim.timeout(0.005)

    sim.process(open_loop())
    sim.run(until=1.0)
    replicas[2].halt()
    storages[2].crash("intact")
    sim.run(until=2.5)
    peers = [replicas[0], replicas[1], replicas[3]]
    fresh = ServiceReplica(
        sim=sim, net=net, address=replicas[2].address, config=config,
        service=SlowCounter(), keystore=keystore, view=replicas[2].view,
        storage=storages[2],
    )
    fresh.recover_from_disk()
    fresh.state_transfer.bootstrap()
    restart = sim.now
    caught_up = None
    while sim.now < restart + 1.0:
        sim.run(until=sim.now + 0.005)
        if fresh.executed_cid >= max(r.executed_cid for r in peers):
            caught_up = sim.now
            break
    assert caught_up is not None, "executor still trailing 1.0 s after the restart"
    assert caught_up < traffic_ends
    assert fresh.state_transfer.execution_skips >= 1
    sim.run(until=traffic_ends + 2.0)
    assert len({r.last_decided for r in [fresh, *peers]}) == 1
    assert {r.service.value for r in [fresh, *peers]} == {peers[0].service.value}
