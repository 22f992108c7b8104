"""Focused tests for the synchronization phase (leader change)."""

import pytest

from repro.bftsmart import (
    CounterService,
    GroupConfig,
    Stop,
    build_group,
    build_proxy,
)
from repro.bftsmart.leaderchange import Synchronizer
from repro.bftsmart.replica import ServiceReplica
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
    open_cids = {cid for r in live for cid in r.instances}
    assert len(open_cids) >= 2  # the pipeline really was multi-slot
    assert all(r.last_decided == -1 for r in live)
    net.crash("replica-0")

    sim.run(until=sim.now + 30, stop_on=sim.all_of(events))
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
    sim.run(until=sim.now + 30, stop_on=sim.all_of(events))
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
        yield sim.all_of(events)
        return True

    sim.run_process(burst(), until=sim.now + 60)
    assert all(r.synchronizer.regency == 0 for r in replicas)
    assert all(r.service.value == 300 for r in replicas)


# ---------------------------------------------------------------------------
# the watchdog wakes on the suspicion deadline, not on the next quarter-tick
# ---------------------------------------------------------------------------


@pytest.fixture
def suspicions(monkeypatch):
    """Every watchdog suspicion as ``(now, address, oldest pending arrival)``."""
    calls = []
    suspect = Synchronizer.suspect

    def recording(self):
        replica = self.replica
        _request, oldest = next(iter(replica.pending.values()))
        calls.append((replica.sim.now, replica.address, oldest))
        suspect(self)

    monkeypatch.setattr(Synchronizer, "suspect", recording)
    return calls


@pytest.mark.parametrize("phase", range(8))
def test_dead_leader_is_suspected_the_instant_its_request_ages_out(phase, suspicions):
    """The kill instant sweeps one full watchdog tick in eighths: wherever
    it lands, each follower's first suspicion is at ``oldest pending +
    request_timeout`` (a polling watchdog is up to a quarter-timeout
    late, by a different amount in every phase)."""
    sim, net, replicas, proxy = make_world()
    timeout = replicas[0].config.request_timeout
    tick = timeout / 4
    run_adds(sim, proxy, 5)
    sim.run(until=1.0 + phase * tick / 8)
    net.crash("replica-0")
    assert run_adds(sim, proxy, 1) == 6

    live = replicas[1:]
    first = {}
    for when, address, oldest in suspicions:
        first.setdefault(address, (when, oldest))
    assert sorted(first) == [r.address for r in live]
    for when, oldest in first.values():
        assert oldest + timeout < when <= oldest + timeout + 1e-6
    assert [r.synchronizer.changes_completed for r in live] == [1] * 3
    assert [r.synchronizer.regency for r in live] == [1] * 3


def test_fault_free_watchdog_keeps_the_quarter_tick_and_never_votes(monkeypatch):
    """Steady state: the deadline is always further away than the tick,
    so five seconds cost exactly the polling watchdog's wake-ups."""
    sleeps = []
    watchdog_sleep = ServiceReplica._watchdog_sleep

    def recording(self):
        sleeps.append(watchdog_sleep(self))
        return sleeps[-1]

    monkeypatch.setattr(ServiceReplica, "_watchdog_sleep", recording)
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
    assert [r.synchronizer._highest_vote for r in replicas] == [0] * 4
