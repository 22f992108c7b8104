"""One Byzantine replica votes once, under the name its envelope carries.

Every quorum the group and its clients count — f+1 matching replies and
pushes, 2f+1 WRITE/ACCEPT votes, f+1 STOPs, f+1 matching state replies —
is keyed by the sender :meth:`SecureChannel.open` authenticated, never
by a name the message itself declares. Each case below lets replica-3
(f = 1) seal traffic with its own key while trying to speak for other
members: it sends extra copies that claim other replicas' identities
wherever the message type offers a field to claim one in, and
otherwise plain extra copies. The copies must count once, as replica-3.

:func:`_claiming` builds the attacker's messages: protocol messages
name no direct-hop sender any more, so on the current wire types the
claim has nowhere to go and the copies are identical. Written this
way, the same attacks also run against a protocol whose messages still
carried a self-declared ``sender``/``replica`` field, where each of them
broke a quorum.
"""

from __future__ import annotations

import dataclasses

from repro.bftsmart import CounterService, GroupConfig, build_group, build_proxy
from repro.bftsmart.messages import (
    AcceptMsg,
    Propose,
    PushMessage,
    Reply,
    RequestBatch,
    StateReply,
    Stop,
    WriteMsg,
)
from repro.crypto import KeyStore, digest
from repro.net import ConstantLatency, Drop, Network
from repro.obs.trace import install_tracer
from repro.sim import Simulator
from repro.wire import decode, encode

ADD = encode(("add", 1))
ATTACKER = "replica-3"
#: Identity fields a self-declaring message would carry.
_CLAIM_FIELDS = ("sender", "replica")


def _claiming(cls, claimed: str, **fields):
    """``cls(**fields)``, naming ``claimed`` as its sender if ``cls`` has
    a field to name one in."""
    names = {field.name for field in dataclasses.fields(cls)}
    for name in _CLAIM_FIELDS:
        if name in names:
            fields[name] = claimed
    return cls(**fields)


def _group(seed=1, client="client-0"):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, request_timeout=5.0, batch_wait=0.0)
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, client, config, keystore, invoke_timeout=0.5)
    return sim, replicas, proxy


def _attack(replicas, dst: str, cls, claims, **fields) -> None:
    """Send one copy per claimed name, each sealed under replica-3's key."""
    channel = replicas[3].channel
    assert channel.address == ATTACKER
    for claimed in claims:
        channel.send(dst, _claiming(cls, claimed, **fields))


def test_a_reply_pair_from_one_replica_is_one_vote():
    sim, replicas, proxy = _group()
    voters = []
    proxy.on_result = lambda sequence, result, by: voters.append(by)
    event = proxy.invoke_ordered(ADD)
    # Both copies land long before any honest reply (consensus takes
    # several hops): alone, they would be an f+1 quorum for the lie.
    _attack(
        replicas, proxy.client_id, Reply, (ATTACKER, "replica-0"),
        client_id=proxy.client_id, sequence=0, result=b"LIE", view_id=0, regency=0,
    )
    sim.run(until=1.0)
    assert event.triggered and event.ok
    assert event.value != b"LIE" and decode(event.value) == 1
    assert len(voters) == 1 and len(voters[0]) >= 2
    assert [replica.service.value for replica in replicas] == [1] * 4


def test_a_push_pair_from_one_replica_is_one_vote():
    sim, replicas, proxy = _group()
    delivered = []
    proxy.pushes.set_handler("s", lambda push: delivered.append(push.payload))
    _attack(
        replicas, proxy.client_id, PushMessage, (ATTACKER, "replica-0"),
        client_id=proxy.client_id, stream="s", order=(1,), payload=b"FORGED",
    )
    sim.run(until=0.01)
    assert delivered == []
    for replica in replicas[:2]:
        replica.push(proxy.client_id, "s", (1,), b"genuine")
    sim.run(until=0.02)
    assert delivered == [b"genuine"]


def test_a_deviant_push_is_attributed_to_its_envelope_sender():
    sim, replicas, proxy = _group()
    tracer = install_tracer(sim)
    _attack(
        replicas, proxy.client_id, PushMessage, ("replica-0",),
        client_id=proxy.client_id, stream="s", order=(1,), payload=b"FORGED",
    )
    sim.run(until=0.01)
    for replica in replicas[:3]:
        replica.push(proxy.client_id, "s", (1,), b"genuine")
    sim.run(until=0.02)
    blamed = [
        span.attrs["replica"] for span in tracer.spans if span.name == "push.mismatch"
    ]
    # The IDS counts these points per replica; heal evicts on its verdict.
    assert blamed == [ATTACKER]


def test_a_forged_proposal_with_claimed_votes_decides_nothing():
    sim, replicas, proxy = _group()
    empty = digest(encode(RequestBatch(requests=())))
    # replica-1 alone is fed a PROPOSE "from the leader" and WRITE/ACCEPT
    # votes "from" three members, all for the empty batch.
    _attack(
        replicas, "replica-1", Propose, ("replica-0",),
        cid=0, epoch=0, keys=(), value_digest=empty, timestamp=0.0,
    )
    for cls in (WriteMsg, AcceptMsg):
        _attack(
            replicas, "replica-1", cls, ("replica-0", "replica-2", ATTACKER),
            cid=0, epoch=0, value_digest=empty,
        )
    event = proxy.invoke_ordered(ADD)
    sim.run(until=1.0)
    assert event.ok and decode(event.value) == 1
    decided = [replica.decision_log[0] for replica in replicas]
    assert all(entry[0] == 0 and entry[1] != b"" for entry in decided)
    assert len({entry[1] for entry in decided}) == 1
    assert [replica.service.value for replica in replicas] == [1] * 4


def test_f_plus_one_stops_from_one_replica_change_no_leader():
    sim, replicas, _proxy = _group()
    for dst in ("replica-0", "replica-1", "replica-2"):
        _attack(replicas, dst, Stop, (ATTACKER, "replica-0"), regency=1)
    sim.run(until=1.0)
    assert [replica.regency for replica in replicas] == [0] * 4
    assert all(replica.synchronizer.changes_completed == 0 for replica in replicas)


def test_f_plus_one_state_replies_from_one_replica_install_nothing():
    sim, replicas, _proxy = _group()
    victim = replicas[1]
    victim.state_transfer.bootstrap()
    forged_state = encode((encode(1000), ()))
    _attack(
        replicas, victim.address, StateReply, (ATTACKER, "replica-2"),
        checkpoint_cid=41, snapshot=forged_state, log=(), view=victim.view,
    )
    sim.run(until=1.0)
    assert victim.state_transfer.completed == 0
    assert victim.last_decided == -1 and victim.service.value == 0


def test_a_client_that_leaves_the_leader_out_forces_no_leader_change():
    """A Byzantine client multicasts (and retransmits) one signed request
    to replicas 1-3 only. The followers forward it to the leader, which
    orders it: no replica ever suspects the leader on the client's word."""
    sim, replicas, proxy = _group()
    net = replicas[0].net
    net.faults.add(Drop(src=proxy.client_id, dst="replica-0"))
    event = proxy.invoke_ordered(ADD)
    sim.run(until=20.0)
    assert event.ok and decode(event.value) == 1
    # Forwarded at the followers' first patience (the quarter-timeout
    # tick, before any turnaround was measured): the client's first
    # retransmission was already out.
    assert proxy.stats["retransmissions"] == 1
    assert [replica.regency for replica in replicas] == [0] * 4
    assert [replica.service.value for replica in replicas] == [1] * 4


def test_a_client_that_leaves_two_followers_out_forces_no_leader_change():
    """A Byzantine client multicasts one signed request to the leader and
    replica-1 only. The leader's PROPOSE names it; replicas 2 and 3 fetch
    it from the leader and decide it with the rest: no leader change, no
    retransmission."""
    sim, replicas, proxy = _group()
    net = replicas[0].net
    for dst in ("replica-2", "replica-3"):
        net.faults.add(Drop(src=proxy.client_id, dst=dst))
    event = proxy.invoke_ordered(ADD)
    sim.run(until=1.0)
    assert event.ok and decode(event.value) == 1
    assert proxy.stats["retransmissions"] == 0
    assert [replica.fetches for replica in replicas] == [0, 0, 1, 1]
    assert [replica.regency for replica in replicas] == [0] * 4
    assert [replica.service.value for replica in replicas] == [1] * 4
