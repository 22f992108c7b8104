"""Focused tests for the synchronization phase (leader change)."""

import pytest

from repro.bftsmart import (
    CounterService,
    GroupConfig,
    Stop,
    WriteMsg,
    build_group,
    build_proxy,
)
from repro.bftsmart.byzantine import Behaviour
from repro.bftsmart.leaderchange import Synchronizer
from repro.bftsmart.pool import Pool
from repro.crypto import KeyStore
from repro.net import ConstantLatency, Drop, Network
from repro.sim import Simulator
from repro.wire import decode, encode


def make_world(seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, request_timeout=0.4, sync_timeout=0.8)
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


def test_no_spurious_leader_change_when_healthy():
    sim, _net, replicas, proxy = make_world()
    run_adds(sim, proxy, 20)
    sim.run(until=sim.now + 5)
    assert all(r.synchronizer.regency == 0 for r in replicas)
    assert all(r.synchronizer.changes_completed == 0 for r in replicas)


def test_leader_change_rotates_to_next_replica():
    sim, net, replicas, proxy = make_world()
    net.crash("replica-0")
    run_adds(sim, proxy, 3)
    live = replicas[1:]
    assert all(r.synchronizer.regency == 1 for r in live)
    assert all(r.leader == "replica-1" for r in live)
    assert all(r.synchronizer.changes_completed >= 1 for r in live)


def test_single_stop_does_not_change_leader():
    """One (possibly Byzantine) replica demanding a new regency is ignored
    until f+1 votes exist."""
    sim, _net, replicas, _proxy = make_world()
    byzantine = replicas[3]
    stop = Stop(regency=1)
    byzantine.channel.broadcast(byzantine.other_replicas(), stop)
    sim.run(until=sim.now + 3)
    assert all(r.synchronizer.regency == 0 for r in replicas[:3])


def test_stop_from_non_member_ignored():
    sim, net, replicas, _proxy = make_world()
    keystore = KeyStore()
    from repro.bftsmart.channel import SecureChannel

    outsider_endpoint = net.endpoint("outsider")
    outsider = SecureChannel(outsider_endpoint, keystore)
    for _ in range(5):
        outsider.broadcast(
            [r.address for r in replicas], Stop(regency=1)
        )
    sim.run(until=sim.now + 2)
    assert all(r.synchronizer.regency == 0 for r in replicas)


def test_in_flight_value_recovered_across_leader_change():
    """A proposal that reached the WRITE phase before the leader died is
    re-proposed by the new leader — no decided operation is ever lost."""
    sim, net, replicas, proxy = make_world()

    # Let the leader propose, then cut it off right after the proposal
    # fan-out by dropping its ACCEPT traffic and then crashing it.
    run_adds(sim, proxy, 2)  # warm-up: everything healthy
    # Drop the leader's outgoing accepts so cid 2 stalls mid-protocol.
    net.faults.add(Drop(src="replica-0", kind="AcceptMsg"))
    event = proxy.invoke_ordered(encode(("add", 10)))
    sim.run(until=sim.now + 0.05)  # propose + writes circulate
    net.crash("replica-0")
    sim.run(until=sim.now + 30, stop_on=event)
    assert event.ok
    assert decode(event.value) == 12
    live = replicas[1:]
    sim.run(until=sim.now + 1)
    assert all(r.service.value == 12 for r in live)


def test_two_crashes_halt_but_do_not_corrupt():
    """f=1 with two crashed replicas: no regency can install (the STOP
    quorum needs 2f+1 = 3 voters), so the group safely halts; recovery
    of one replica restores liveness through a real leader change."""
    sim, net, replicas, proxy = make_world()
    net.crash("replica-0")
    net.crash("replica-1")
    event = proxy.invoke_ordered(encode(("add", 1)))
    event.defused = True
    sim.run(until=sim.now + 3)
    # Halted, and *correctly* so: no regency installed without a quorum.
    assert not event.triggered
    assert all(r.synchronizer.regency == 0 for r in replicas[2:])
    net.recover("replica-1")
    sim.run(until=sim.now + 30, stop_on=event)
    assert event.ok
    live = [r for r in replicas if r.address != "replica-0"]
    sim.run(until=sim.now + 1)
    assert all(r.synchronizer.regency >= 1 for r in live)
    assert run_adds(sim, proxy, 2) == 3


def make_pipelined_world(seed=1):
    """A slow-network world where the leader's window genuinely fills.

    ``batch_wait=0`` proposes each arriving request immediately, and the
    10 ms hop latency keeps instances undecided long enough to observe
    (and crash into) a multi-slot pipeline.
    """
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.01))
    keystore = KeyStore()
    config = GroupConfig(
        n=4, f=1, request_timeout=0.4, sync_timeout=0.8, batch_wait=0.0
    )
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    return sim, net, replicas, proxy


def test_pipelined_leader_crash_reproposes_every_inflight_cid():
    """Crashing the leader with several undecided cids in flight loses
    nothing: the sync phase collects the whole window from the STOP-DATA
    tuples and the new leader re-proposes every slot."""
    sim, net, replicas, proxy = make_pipelined_world()
    assert replicas[0].config.pipeline_depth >= 4

    events = [proxy.invoke_ordered(encode(("add", 1))) for _ in range(8)]
    # Requests land at 10 ms, the window's PROPOSEs at 20 ms, WRITEs at
    # 30 ms — crash the leader before any ACCEPT quorum (40 ms) forms.
    sim.run(until=sim.now + 0.025)
    live = replicas[1:]
    open_cids = {cid for r in live for cid in r.acceptor.instances}
    assert len(open_cids) >= 2  # the pipeline really was multi-slot
    assert all(r.last_decided == -1 for r in live)
    net.crash("replica-0")

    def acknowledged():
        for event in events:
            yield event

    sim.run(until=sim.now + 30, stop_on=sim.process(acknowledged()))
    assert all(event.ok for event in events)
    sim.run(until=sim.now + 1)
    assert all(r.synchronizer.regency >= 1 for r in live)
    assert all(r.leader != "replica-0" for r in live)
    assert all(r.service.value == 8 for r in live)
    # Ordered-prefix invariant: every live replica executed the same
    # decisions in the same cid order.
    logs = [list(r.decision_log) for r in live]
    shortest = min(len(log) for log in logs)
    assert shortest > 0
    assert logs[0][:shortest] == logs[1][:shortest] == logs[2][:shortest]


def test_pipelined_leader_crash_preserves_client_order():
    """Re-proposed window slots keep per-client sequence order intact."""
    sim, net, replicas, proxy = make_pipelined_world(seed=3)
    events = [proxy.invoke_ordered(encode(("add", 1))) for _ in range(8)]
    sim.run(until=sim.now + 0.025)
    net.crash("replica-0")

    def acknowledged():
        for event in events:
            yield event

    sim.run(until=sim.now + 30, stop_on=sim.process(acknowledged()))
    assert all(event.ok for event in events)
    sim.run(until=sim.now + 1)
    live = replicas[1:]
    # Decode every decided batch in execution order and flatten to the
    # per-client sequence stream: it must be strictly increasing, with
    # every request executed exactly once.
    for replica in live:
        sequences = []
        for _cid, value, _timestamp in replica.decision_log:
            if value == b"":
                continue
            for request in decode(value).requests:
                if request.client_id == proxy.client_id:
                    sequences.append(request.sequence)
        assert sequences == sorted(sequences)
        assert len(sequences) == len(set(sequences)) == 8


def test_progress_suppresses_suspicion_under_load():
    """A busy but healthy group must not churn regencies just because
    individual requests wait behind others."""
    sim, _net, replicas, proxy = make_world()

    def burst():
        events = [proxy.invoke_ordered(encode(("add", 1))) for _ in range(300)]
        for event in events:
            yield event
        return True

    sim.run_process(burst(), until=sim.now + 60)
    assert all(r.synchronizer.regency == 0 for r in replicas)
    assert all(r.service.value == 300 for r in replicas)


# ---------------------------------------------------------------------------
# the watchdog forwards, then suspects, each on its deadline
# ---------------------------------------------------------------------------


@pytest.fixture
def watchdog_log(monkeypatch):
    """Every forward and suspicion as ``(now, address, what, reference,
    patience)``: ``what`` is ``"forward"`` or the suspicion's cause, and
    ``reference`` is ``max(oldest unproposed arrival, last_progress)``."""
    log = []
    forward = Pool._forward_unproposed
    suspect = Synchronizer.suspect

    def entry(replica, what):
        _request, arrival = next(iter(replica.pool.unproposed.values()))
        reference = max(arrival, replica.last_progress)
        return (replica.sim.now, replica.address, what, reference, replica.pool.patience())

    def forwarding(self):
        log.append(entry(self.replica, "forward"))
        forward(self)

    def suspecting(self, cause):
        log.append(entry(self.replica, cause))
        suspect(self, cause)

    monkeypatch.setattr(Pool, "_forward_unproposed", forwarding)
    monkeypatch.setattr(Synchronizer, "suspect", suspecting)
    return log


@pytest.mark.parametrize("phase", range(8))
def test_dead_leader_is_suspected_the_instant_its_request_ages_out(phase, watchdog_log):
    """The kill instant sweeps one quarter-timeout tick in eighths. With
    no further traffic to notice the silence sooner, each follower
    forwards its oldest unproposed request on the first watchdog tick
    past ``max(arrival, last_progress) + patience``, and suspects the
    leader (``silent``) the instant the forwarded request has waited one
    more patience — never a polling tick late, and long before the
    one-second ``request_timeout``."""
    sim, net, replicas, proxy = make_world()
    timeout = replicas[0].config.request_timeout
    tick = timeout / 4
    run_adds(sim, proxy, 5)
    sim.run(until=1.0 + phase * tick / 8)
    net.crash("replica-0")
    killed_at = sim.now
    assert run_adds(sim, proxy, 1) == 6

    live = replicas[1:]
    first: dict = {}
    for when, address, what, reference, patience in watchdog_log:
        first.setdefault((address, what), (when, reference, patience))
    assert sorted(first) == sorted(
        (r.address, what) for r in live for what in ("forward", "silent")
    )
    for replica in live:
        forwarded, reference, patience = first[replica.address, "forward"]
        suspected, _reference, same = first[replica.address, "silent"]
        assert patience == same < tick
        assert reference + patience < forwarded <= reference + patience + tick
        assert forwarded % tick < 1e-9 or tick - forwarded % tick < 1e-9  # a tick
        assert forwarded + patience < suspected <= forwarded + patience + 1e-6
        assert suspected - killed_at < 2 * tick + patience
    assert [r.synchronizer.changes_completed for r in live] == [1] * 3
    assert [r.synchronizer.regency for r in live] == [1] * 3


def test_fault_free_watchdog_keeps_the_quarter_tick_and_never_votes(monkeypatch):
    """Steady state: nothing is ever forwarded, so no deadline is nearer
    than the tick, and five seconds cost exactly the polling watchdog's
    wake-ups — the silence rule rides the traffic and the ticks."""
    sleeps = []
    watchdog_sleep = Pool._watchdog_sleep
    forwards = []

    def recording(self):
        sleeps.append(watchdog_sleep(self))
        return sleeps[-1]

    monkeypatch.setattr(Pool, "_watchdog_sleep", recording)
    monkeypatch.setattr(
        Pool, "_forward_unproposed", lambda self: forwards.append(self)
    )
    sim, _net, replicas, proxy = make_world()
    tick = replicas[0].config.request_timeout / 4

    def client():
        while sim.now < 5.0:
            yield proxy.invoke_ordered(encode(("add", 1)))
            yield sim.timeout(0.013)

    sim.process(client())
    sim.run(until=5.0 + tick / 2)
    assert set(sleeps) == {tick}
    # One sleep armed at start, one more after each of the 5.0 / tick wake-ups.
    assert len(sleeps) == len(replicas) * (1 + round(5.0 / tick))
    assert forwards == []
    assert [r.synchronizer._highest_vote for r in replicas] == [0] * 4


def test_a_leader_killed_under_traffic_is_replaced_once_within_two_patiences():
    """400 requests/s, then the leader dies: the followers forward at one
    patience, suspect at two, and one synchronization later the traffic
    flows again — one leader change, an outage of milliseconds where the
    old rule waited out the whole one-second ``request_timeout``."""
    hop, rate = 0.0003, 400.0
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(hop))
    keystore = KeyStore()
    config = GroupConfig(
        n=4, f=1, batch_wait=0.0, request_timeout=1.0, sync_timeout=2.0
    )
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore, invoke_timeout=0.5)
    completed = []

    def sender():
        while sim.now < 4.0:
            event = proxy.invoke_ordered(encode(("add", 1)))
            event.callbacks.append(lambda _event: completed.append(sim.now))
            yield sim.timeout(1 / rate)

    sim.process(sender())
    sim.run(until=2.0)
    live = replicas[1:]
    patience = max(r.pool.patience() for r in live)
    net.crash("replica-0")
    sim.run(until=5.0)

    assert len(completed) == proxy.stats["invocations"]
    assert proxy.stats["retransmissions"] == 0
    assert [r.synchronizer.changes_completed for r in live] == [1] * 3
    outage = max(later - earlier for earlier, later in zip(completed, completed[1:]))
    # One synchronization: STOP, STOP-DATA and SYNC, the re-proposal's
    # consensus round, the forward and the reply, padded to 12 hops; plus
    # the send interval the first unanswered request may trail by.
    synchronization = 12 * hop + 1 / rate
    assert outage <= 2 * patience + synchronization
    assert outage < config.request_timeout / 50


class _VotesWithoutProposals(Behaviour):
    """A leader that, asked to propose, sends every follower only a WRITE
    for each slot of its pipeline window, with no PROPOSE behind any of
    them, and then proposes nothing ever again."""

    def __init__(self):
        self.sent = False

    def on_propose(self, replica, batch):
        if not self.sent:
            self.sent = True
            for cid in range(
                replica.next_cid, replica.next_cid + replica.config.pipeline_depth
            ):
                write = WriteMsg(
                    cid=cid, epoch=replica.regency, value_digest=b"\x00" * 32
                )
                replica.channel.broadcast(replica.other_replicas(), write)
        return None


def test_votes_without_a_proposal_buy_a_leader_no_pause():
    """The slots a leader's bare WRITEs open on a follower hold no
    PROPOSE, so they are not the leader's pipeline window: the followers
    still forward, suspect it ``silent`` and install regency 1, and the
    new leader decides the request well inside one ``request_timeout``,
    without a retransmission."""
    sim, _net, replicas, proxy = make_world()
    replicas[0].behaviour = _VotesWithoutProposals()
    started = sim.now
    assert run_adds(sim, proxy, 1) == 1
    assert sim.now - started < replicas[0].config.request_timeout
    assert proxy.stats["retransmissions"] == 0
    sim.run(until=sim.now + 1.0)
    assert replicas[0].behaviour.sent
    assert [r.synchronizer.regency for r in replicas[1:]] == [1] * 3
    assert all(r.service.value == 1 for r in replicas[1:])


def test_a_proposal_kept_from_all_but_f_followers_is_still_replaced():
    """The leader's PROPOSE reaches one follower (f), its WRITE every
    one, and it never votes STOP itself. With a one-slot window the
    vote-opened slot fills no window on the two followers without the
    PROPOSE: they suspect it ``silent``, f+1 of them, the third joins,
    and regency 1 decides the request."""
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(
        n=4, f=1, request_timeout=0.4, sync_timeout=0.8, pipeline_depth=1
    )
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    for dst in ("replica-2", "replica-3"):
        net.faults.add(Drop(src="replica-0", dst=dst, kind="Propose"))
    net.faults.add(Drop(src="replica-0", kind="Stop"))
    assert run_adds(sim, proxy, 1) == 1
    sim.run(until=sim.now + 1.0)
    assert [r.synchronizer.regency for r in replicas[1:]] == [1] * 3
    assert all(r.service.value == 1 for r in replicas[1:])
