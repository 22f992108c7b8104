"""Each Byzantine behaviour does what its docstring says, wherever it applies.

A behaviour is a value on a live replica (``replica.behaviour``) that the
replica consults at ingress, when proposing, at every reply it sends and
at every push. These tests pin what the subclass-based behaviours got
wrong: the liar lies, and only lies, on every reply path; the stutterer
stays quiet on every reply path — ordered, retransmitted from the reply
cache, and unordered; and a behaviour never undoes the halt of a replica
the group removed.
"""

import pytest

from repro.bftsmart import (
    Administrator,
    CounterService,
    GroupConfig,
    Lying,
    Stuttering,
    build_group,
    build_proxy,
)
from repro.crypto import KeyStore
from repro.net import ConstantLatency, Drop, LanLatency, Network, NetworkTrace
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
