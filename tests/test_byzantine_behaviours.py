"""Each Byzantine behaviour does what its docstring says, wherever it applies.

A behaviour is a value on a live replica (``replica.behaviour``) that the
replica consults at ingress, when proposing, at every reply it sends and
at every push. These tests pin what the subclass-based behaviours got
wrong: the liar lies, and only lies, on every reply path; the stutterer
stays quiet on every reply path — ordered, retransmitted from the reply
cache, and unordered; a behaviour never undoes the halt of a replica
the group removed; and a leader that withholds the requests its PROPOSE
names, or declares a digest they do not hash to, is replaced.
"""

import pytest

from repro.bftsmart import (
    Administrator,
    CounterService,
    GroupConfig,
    Lying,
    Misdigesting,
    Stuttering,
    Withholding,
    build_group,
    build_proxy,
)
from repro.crypto import KeyStore
from repro.net import ConstantLatency, Drop, LanLatency, Network, NetworkTrace
from repro.obs.trace import install_tracer
from repro.sim import Simulator
from repro.wire import decode, encode


def _group(seed, latency=None, n=4, trace=None):
    sim = Simulator(seed=seed)
    if latency is None:
        latency = LanLatency(rng=sim.rng.stream("net"))
    net = Network(sim, latency=latency, trace=trace)
    keystore = KeyStore()
    config = GroupConfig(n=n, f=1, request_timeout=0.5, sync_timeout=1.0)
    replicas = build_group(sim, net, config, CounterService, keystore)
    return sim, net, keystore, config, replicas


@pytest.mark.parametrize("behaviour", [None, Stuttering()], ids=["honest", "stuttering"])
def test_removed_replica_stays_halted(behaviour):
    sim, net, keystore, config, replicas = _group(seed=3, n=5)
    replicas[4].behaviour = behaviour
    proxy = build_proxy(sim, net, "admin-client", config, keystore)
    admin = Administrator(proxy, keystore)

    def scenario():
        yield proxy.invoke_ordered(encode(("add", 1)))
        raw = yield admin.reconfigure(leave=("replica-4",))
        yield proxy.invoke_ordered(encode(("add", 1)))
        return decode(raw)

    assert sim.run_process(scenario(), until=sim.now + 30) == ("ok", 1)
    sim.run(until=sim.now + 1)
    assert not replicas[4].active
    assert all(replica.active for replica in replicas[:4])


@pytest.mark.parametrize("seed", range(1, 21))
def test_liar_is_never_a_winning_voter(seed):
    sim, net, keystore, config, replicas = _group(seed)
    replicas[2].behaviour = Lying()
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    voters = []
    proxy.on_result = lambda _sequence, _result, votes: voters.append(votes)

    def client():
        values = []
        for _ in range(20):
            values.append(decode((yield proxy.invoke_ordered(encode(("add", 1))))))
        values.append(decode((yield proxy.invoke_unordered(encode(("get", 0))))))
        return values

    assert sim.run_process(client(), until=sim.now + 30) == [*range(1, 21), 20]
    assert len(voters) == 21
    assert not any("replica-2" in votes for votes in voters)


def test_stutterers_reply_never_reaches_the_client():
    trace = NetworkTrace()
    sim, net, keystore, config, replicas = _group(
        seed=5, latency=ConstantLatency(0.0003), trace=trace
    )
    replicas[3].behaviour = Stuttering()
    proxy = build_proxy(sim, net, "client-1", config, keystore, invoke_timeout=0.3)
    voters = []
    proxy.on_result = lambda _sequence, _result, votes: voters.append(votes)

    def reads_and_adds():
        yield proxy.invoke_ordered(encode(("add", 1)))
        return decode((yield proxy.invoke_unordered(encode(("get", 0)))))

    assert sim.run_process(reads_and_adds(), until=sim.now + 10) == 1
    # Only replica-2 and the stutterer can still answer: the retransmitted
    # request finds the stutterer's reply cache, which must stay shut.
    for src in ("replica-0", "replica-1"):
        net.faults.add(Drop(src=src, dst="client-1", kind="Reply"))
    event = proxy.invoke_ordered(encode(("add", 1)))
    event.defused = True
    sim.run(until=sim.now + 10)
    assert not event.ok
    assert all(replica.service.value == 2 for replica in replicas)
    assert not any("replica-3" in votes for votes in voters)
    assert not [
        hop for hop in trace.hops if hop.src == "replica-3" and hop.kind == "Reply"
    ]


def _first_stops(tracer) -> list:
    """``(replica, regency, cause)`` of every first STOP vote."""
    return sorted(
        (span.process, span.attrs["regency"], span.attrs["cause"])
        for span in tracer.spans
        if span.name == "sync.suspect"
    )


def test_a_leader_that_withholds_fetched_requests_is_replaced():
    """The client's first multicast reaches the leader and replica-1 only.
    The leader proposes the request and ignores the fetches of replicas 2
    and 3, which cannot rebuild the value, so it cannot decide. The
    client's retransmission pools the request there, their silence rule
    runs out, and regency 1 orders it."""
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    # The timeout backstop (2 s) stays out of the way of the silence rule.
    config = GroupConfig(n=4, f=1, request_timeout=2.0, batch_wait=0.0)
    replicas = build_group(sim, net, config, CounterService, keystore)
    tracer = install_tracer(sim)
    replicas[0].behaviour = Withholding()
    proxy = build_proxy(sim, net, "client-1", config, keystore, invoke_timeout=0.3)
    for dst in ("replica-2", "replica-3"):
        net.faults.add(Drop(src=proxy.client_id, dst=dst, max_count=1))
    event = proxy.invoke_ordered(encode(("add", 1)))
    sim.run(until=5.0)
    assert event.ok and decode(event.value) == 1
    # Re-sent once per patience while unanswered.
    assert [replica.fetches > 0 for replica in replicas] == [False, False, True, True]
    assert [replica.regency for replica in replicas] == [1] * 4
    assert [replica.service.value for replica in replicas] == [1] * 4
    assert _first_stops(tracer) == [
        ("replica-0", 1, "joined"),
        ("replica-1", 1, "joined"),
        ("replica-2", 1, "silent"),
        ("replica-3", 1, "silent"),
    ]


def test_a_leader_whose_requests_do_not_hash_to_its_digest_is_replaced_as_invalid():
    """Every follower rebuilds another value from the leader's keys,
    fetches them all, and finds the leader's own answer rebuilding that
    other value too: each suspects the leader first-hand (``invalid``)."""
    sim, net, keystore, config, replicas = _group(seed=1, latency=ConstantLatency(0.0003))
    tracer = install_tracer(sim)
    replicas[0].behaviour = Misdigesting()
    proxy = build_proxy(sim, net, "client-1", config, keystore, invoke_timeout=0.3)
    event = proxy.invoke_ordered(encode(("add", 1)))
    sim.run(until=5.0)
    assert event.ok and decode(event.value) == 1
    assert proxy.stats["retransmissions"] == 0
    assert [replica.fetches for replica in replicas] == [0, 1, 1, 1]
    assert [replica.regency for replica in replicas] == [1] * 4
    assert [replica.service.value for replica in replicas] == [1] * 4
    assert [
        (replica, cause) for replica, regency, cause in _first_stops(tracer)
        if replica != "replica-0"
    ] == [("replica-1", "invalid"), ("replica-2", "invalid"), ("replica-3", "invalid")]
