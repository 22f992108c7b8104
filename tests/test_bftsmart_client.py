"""Focused tests for the client proxy: voting, retransmission, pushes."""

import pytest

from repro.bftsmart import (
    CounterService,
    EchoService,
    GroupConfig,
    PushMessage,
    build_group,
    build_proxy,
)
from repro.bftsmart.client import PushVoter
from repro.bftsmart.view import View
from repro.crypto import KeyStore
from repro.net import ConstantLatency, Drop, Network
from repro.sim import Simulator
from repro.wire import decode, encode


def make_world(seed=1, **config_kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, **config_kwargs)
    return sim, net, keystore, config


# -- PushVoter in isolation ----------------------------------------------------


VIEW = View(0, ("r0", "r1", "r2", "r3"), 1)


def make_voter():
    voter = PushVoter(lambda: VIEW)
    delivered = []
    voter.set_handler("s", lambda push: delivered.append((push.order, push.payload)))
    return voter, delivered


def push(replica, order=(1, 0, 1), payload=b"data", stream="s"):
    """``on_push`` arguments: the message and its envelope sender."""
    message = PushMessage(client_id="c", stream=stream, order=order, payload=payload)
    return message, replica


def test_voter_delivers_at_f_plus_1():
    voter, delivered = make_voter()
    voter.on_push(*push("r0"))
    assert delivered == []
    voter.on_push(*push("r1"))
    assert delivered == [((1, 0, 1), b"data")]


def test_voter_delivers_exactly_once():
    voter, delivered = make_voter()
    for replica in ("r0", "r1", "r2", "r3"):
        voter.on_push(*push(replica))
    assert len(delivered) == 1


def test_voter_same_replica_cannot_vote_twice():
    voter, delivered = make_voter()
    voter.on_push(*push("r0"))
    voter.on_push(*push("r0"))
    voter.on_push(*push("r0"))
    assert delivered == []


def test_voter_mismatched_payloads_do_not_combine():
    voter, delivered = make_voter()
    voter.on_push(*push("r0", payload=b"genuine"))
    voter.on_push(*push("r1", payload=b"forged!"))
    assert delivered == []
    voter.on_push(*push("r2", payload=b"genuine"))
    assert delivered == [((1, 0, 1), b"genuine")]


def test_voter_ignores_non_members():
    voter, delivered = make_voter()
    voter.on_push(*push("intruder-1"))
    voter.on_push(*push("intruder-2"))
    assert delivered == []


def test_voter_streams_are_independent():
    voter, delivered = make_voter()
    other = []
    voter.set_handler("other", lambda push: other.append(push.order))
    voter.on_push(*push("r0", stream="other"))
    voter.on_push(*push("r1", stream="other"))
    assert other == [(1, 0, 1)]
    assert delivered == []


def test_voter_orders_are_independent():
    voter, delivered = make_voter()
    voter.on_push(*push("r0", order=(1, 0, 1)))
    voter.on_push(*push("r1", order=(2, 0, 1)))
    assert delivered == []
    voter.on_push(*push("r1", order=(1, 0, 1)))
    voter.on_push(*push("r0", order=(2, 0, 1)))
    assert [order for order, _p in delivered] == [(1, 0, 1), (2, 0, 1)]


def test_voter_stream_without_handler_counts_delivery():
    voter, _delivered = make_voter()
    voter.on_push(*push("r0", stream="unclaimed"))
    voter.on_push(*push("r1", stream="unclaimed"))
    assert voter.delivered_count == 1


def test_voter_tables_stay_bounded_under_a_flood_of_unmatched_orders():
    # One member pushes more distinct orders than DEDUP_LIMIT that nobody
    # else confirms: it only ages out its own oldest votes, and honest
    # pushes still deliver, in order.
    voter, delivered = make_voter()
    limit = PushVoter.DEDUP_LIMIT
    for order in range(limit + 100):
        voter.on_push(*push("r3", order=(0, order), payload=b"made up"))
    assert len(voter._open["r3"]) == limit
    assert len(voter._candidates) == limit
    assert (0, 0) not in {order for _stream, order in voter._candidates}
    for order in range(1, 4):
        voter.on_push(*push("r0", order=(1, order)))
        voter.on_push(*push("r1", order=(1, order)))
    assert [order for order, _p in delivered] == [(1, 1), (1, 2), (1, 3)]
    assert len(voter._candidates) == limit
    assert not voter._open["r0"] and not voter._open["r1"]


def test_voter_delivery_drops_competing_candidates_and_names_their_voters():
    voter, delivered = make_voter()
    deviants = []
    voter.on_deviant = lambda stream, order, replica: deviants.append(replica)
    voter.on_push(*push("r3", payload=b"forged!"))
    voter.on_push(*push("r0"))
    voter.on_push(*push("r1"))
    assert delivered == [((1, 0, 1), b"data")]
    assert deviants == ["r3"]
    assert voter._candidates == {}
    assert not any(voter._open.values())


# -- proxy behaviour over the network ---------------------------------------------


def test_invoke_fails_after_max_attempts():
    sim, net, keystore, config = make_world()
    build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore, invoke_timeout=0.1)
    proxy.max_attempts = 3
    net.faults.add(Drop(kind="ClientRequest"))  # nothing ever arrives
    event = proxy.invoke_ordered(encode(("add", 1)))
    failed = {}
    event.add_callback(lambda ev: failed.setdefault("exc", ev.exception))
    sim.run(until=sim.now + 5)
    assert isinstance(failed["exc"], TimeoutError)
    assert proxy.stats["failures"] == 1


def test_sequences_are_monotonic_per_proxy():
    sim, net, keystore, config = make_world()
    build_group(sim, net, config, EchoService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    events = [proxy.invoke_ordered(b"x") for _ in range(5)]
    sequences = [inv.request.sequence for inv in proxy._pending.values()]
    assert sequences == sorted(sequences)
    for event in events:
        event.defused = True
    sim.run(until=sim.now + 5)


def test_two_proxies_are_isolated():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, CounterService, keystore)
    alice = build_proxy(sim, net, "alice", config, keystore)
    bob = build_proxy(sim, net, "bob", config, keystore)

    def run_all():
        a = alice.invoke_ordered(encode(("add", 1)))
        b = bob.invoke_ordered(encode(("add", 2)))
        values = yield sim.all_of([a, b])
        return [decode(v) for v in values]

    sim.run_process(run_all(), until=sim.now + 10)
    sim.run(until=sim.now + 1)
    assert all(r.service.value == 3 for r in replicas)


def test_replies_from_outside_view_ignored():
    sim, net, keystore, config = make_world()
    build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    from repro.bftsmart.channel import SecureChannel
    from repro.bftsmart.messages import Reply

    # A forger with valid channel keys but not a view member sends f+1
    # matching (bogus) replies for the next sequence.
    forger_endpoint = net.endpoint("forger")
    forger = SecureChannel(forger_endpoint, keystore)
    event = proxy.invoke_ordered(encode(("add", 1)))
    for name in ("forger", "forger"):  # same sender: also dedup-protected
        forger.send(
            "client-1",
            Reply(
                client_id="client-1",
                sequence=0,
                result=b"bogus",
                view_id=0,
                regency=0,
            ),
        )
    sim.run(until=sim.now + 2, stop_on=event)
    assert event.ok
    assert decode(event.value) == 1  # honest result, not b"bogus"
