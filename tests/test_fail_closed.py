"""One hostile frame costs its sender one rejected envelope, nothing more.

A member's or a client's MAC key lets it seal any bytes at all. The
secure channel verifies the MAC, then decodes; the codec must answer a
malformed payload with :class:`DecodeError` (which the channel counts
and drops), never with another exception that unwinds the receiving
replica's handler — one client would otherwise take down all ``n``
replicas, far outside any ``f`` budget.

The same holds one step further in, for frames that decode into a
registered type of the wrong shape: a PROPOSE by reference from a
Byzantine leader, a fetch from a Byzantine follower. Each is dropped and
counted as one rejected envelope, and a follower that repeats a fetch
gets no second answer.

The replicated SCADA Master has one entry point, the BFT-ordered
Adapter: its core is on no network, so a message addressed to the
Master's logical identity reaches no replica and changes no state.
"""

from __future__ import annotations

import pytest

from repro.bftsmart import CounterService, GroupConfig, build_group, build_proxy
from repro.bftsmart.messages import (
    ClientRequest,
    FetchRequests,
    Propose,
    RequestBatch,
    Sealed,
)
from repro.core import ShardedScadaConfig, build_sharded_scada, build_smartscada
from repro.crypto import KeyStore, digest
from repro.neoscada import DataValue, ItemUpdate
from repro.neoscada.messages import BrowseReply, EventQuery, ValueQuery
from repro.net import ConstantLatency, Drop, Network, UnknownEndpoint
from repro.sim import Simulator
from repro.wire import GLOBAL_REGISTRY, decode, encode

ADD = encode(("add", 1))


def _group():
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, batch_wait=0.0)
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-0", config, keystore, invoke_timeout=0.5)
    return sim, replicas, proxy


def _send_raw(channel, receivers, payload: bytes) -> None:
    """Seal ``payload`` under ``channel``'s own key, one envelope each."""
    for receiver in receivers:
        sealed = Sealed(
            sender=channel.address,
            payload=payload,
            tags={receiver: channel.auth.mac(receiver, payload)},
        )
        channel.endpoint.send(receiver, sealed, "Garbage", len(encode(sealed)))


def _snapshot(replicas) -> list:
    return [
        (r.regency, r.last_decided, r.service.value, r.stats["rejected_requests"])
        for r in replicas
    ]


def _rejected(replicas) -> list:
    return [r.channel.rejected for r in replicas]


def test_a_replica_frame_with_an_unhashable_dict_key_is_one_rejected_envelope():
    sim, replicas, proxy = _group()
    assert decode(sim.run_process(_adds(sim, proxy, 2), until=5.0)) == 2
    before, rejected = _snapshot(replicas), _rejected(replicas)
    # A dict of one entry whose key is an empty list.
    _send_raw(replicas[3].channel, ["replica-0"], b"\x09\x01\x07\x00\x00")
    sim.run(until=sim.now + 0.01)
    assert _rejected(replicas) == [rejected[0] + 1] + rejected[1:]
    assert _snapshot(replicas) == before
    assert decode(sim.run_process(_adds(sim, proxy, 1), until=sim.now + 5.0)) == 3


def test_a_client_frame_naming_a_dataclass_as_an_enum_is_one_rejected_envelope_each():
    sim, replicas, proxy = _group()
    assert decode(sim.run_process(_adds(sim, proxy, 2), until=5.0)) == 2
    before, rejected = _snapshot(replicas), _rejected(replicas)
    type_id = GLOBAL_REGISTRY.id_of(ClientRequest)
    assert type_id < 0x80  # one varint byte
    _send_raw(
        proxy.channel, [r.address for r in replicas], bytes([0x0B, type_id, 0x00])
    )
    sim.run(until=sim.now + 0.01)
    assert _rejected(replicas) == [count + 1 for count in rejected]
    assert _snapshot(replicas) == before
    assert decode(sim.run_process(_adds(sim, proxy, 1), until=sim.now + 5.0)) == 3


def _adds(sim, proxy, count):
    result = None
    for _ in range(count):
        result = yield proxy.invoke_ordered(ADD)
    return result


#: Key tuples no honest leader or follower sends (``batch_max`` is 400).
_MALFORMED_KEYS = (
    tuple((f"client-{i}", 0) for i in range(401)),  # one key too many
    [("client-0", 2)],  # a list, not a tuple
    (("client-0",),),  # not a pair
    ((2, "client-0"),),  # (int, str)
    (("client-0", True),),  # a bool is no sequence
    (("client-0", 2), ("client-0", 2)),  # a duplicate key
)


def test_a_reference_propose_of_another_shape_is_one_rejected_envelope_each():
    sim, replicas, proxy = _group()
    assert decode(sim.run_process(_adds(sim, proxy, 2), until=5.0)) == 2
    before, rejected = _snapshot(replicas), _rejected(replicas)
    good = {"cid": 2, "epoch": 0, "keys": (("client-0", 2),),
            "value_digest": digest(b"v"), "timestamp": 0.0}
    shapes = [{**good, "keys": keys} for keys in _MALFORMED_KEYS] + [
        {**good, "cid": "2"},
        {**good, "epoch": 0.0},
        {**good, "value_digest": "d"},
    ]
    for fields in shapes:
        # From the leader itself: only the shape is wrong.
        replicas[0].channel.send("replica-1", Propose(**fields))
    sim.run(until=sim.now + 0.01)
    assert _rejected(replicas) == [
        rejected[0], rejected[1] + len(shapes), rejected[2], rejected[3]
    ]
    assert _snapshot(replicas) == before
    assert [replica.fetches for replica in replicas] == [0] * 4
    assert decode(sim.run_process(_adds(sim, proxy, 1), until=sim.now + 5.0)) == 3


def _open_leader_slot():
    """A group whose followers decided cid 0 (the client's first add)
    while the leader, deaf to ACCEPTs, keeps the slot open."""
    sim, replicas, proxy = _group()
    replicas[0].net.faults.add(Drop(dst="replica-0", kind="AcceptMsg"))
    assert decode(sim.run_process(_adds(sim, proxy, 1), until=5.0)) == 1
    leader = replicas[0]
    assert 0 in leader.acceptor.instances and not leader.acceptor.instances[0].decided
    answers = []
    send = leader.channel.send

    def spy(dst, message):
        if isinstance(message, RequestBatch):
            answers.append((dst, message.requests))
        send(dst, message)

    leader.channel.send = spy
    return sim, replicas, proxy, answers


def test_a_fetch_of_another_shape_or_slot_is_one_rejected_envelope_each():
    sim, replicas, proxy, answers = _open_leader_slot()
    rejected = _rejected(replicas)
    key = (proxy.client_id, 0)
    fetches = [FetchRequests(cid=0, epoch=0, keys=keys) for keys in _MALFORMED_KEYS]
    fetches += [
        FetchRequests(cid=1, epoch=0, keys=(key,)),  # no proposal in this slot
        FetchRequests(cid=9, epoch=0, keys=(key,)),  # outside the window
        FetchRequests(cid=0, epoch=1, keys=(key,)),  # not proposed in regency 1
        FetchRequests(cid="0", epoch=0, keys=(key,)),
        FetchRequests(cid=[0], epoch=0, keys=(key,)),  # unhashable
    ]
    for fetch in fetches:
        replicas[3].channel.send("replica-0", fetch)
    # A client shares a key with every replica, but is no member.
    proxy.channel.send("replica-0", FetchRequests(cid=0, epoch=0, keys=(key,)))
    sim.run(until=sim.now + 0.01)
    assert _rejected(replicas) == [rejected[0] + len(fetches) + 1] + rejected[1:]
    assert answers == []


def test_a_repeated_fetch_gets_no_second_answer():
    sim, replicas, proxy, answers = _open_leader_slot()
    rejected = _rejected(replicas)
    key = (proxy.client_id, 0)
    [request] = replicas[0].acceptor.instances[0].proposal_batch.requests
    for _ in range(3):
        replicas[3].channel.send("replica-0", FetchRequests(cid=0, epoch=0, keys=(key,)))
    replicas[2].channel.send("replica-0", FetchRequests(cid=0, epoch=0, keys=(key,)))
    sim.run(until=sim.now + 0.01)
    assert answers == [("replica-3", (request,)), ("replica-2", (request,))]
    assert _rejected(replicas) == [rejected[0] + 2] + rejected[1:]


def test_the_replicated_master_core_is_no_network_entry_point():
    sim = Simulator(seed=1)
    system = build_smartscada(sim)
    system.frontend.add_item("plant.temperature", initial=20)
    system.frontend.add_item("plant.valve", initial=0, writable=True)
    system.start()

    def traffic(first, count):
        for value in range(first, first + count):
            system.frontend.inject_update("plant.temperature", value)
            yield sim.timeout(0.01)

    sim.run_process(traffic(0, 100), until=sim.now + 5)
    stranger = system.net.endpoint("stranger")
    for message in (
        BrowseReply(items=(("ghost.item", True),)),
        EventQuery(query_id="q-1", reply_to="stranger"),
        ValueQuery(query_id="q-2", reply_to="stranger", item_id="plant.temperature"),
        ItemUpdate("plant.temperature", DataValue(-1)),
    ):
        with pytest.raises(UnknownEndpoint):
            stranger.send("scada-master", message)
    sim.run(until=sim.now + 1.0)
    assert len(set(system.state_digests())) == 1

    def later():
        yield from traffic(1000, 3)
        result = yield system.hmi.write("plant.valve", 1)
        return result.success

    assert sim.run_process(later(), until=sim.now + 5)
    sim.run(until=sim.now + 0.5)
    assert system.hmi.value_of("plant.temperature") == 1002
    assert system.hmi.value_of("plant.valve") == 1
    assert len(set(system.state_digests())) == 1


@pytest.mark.parametrize("shards", [1, 2])
def test_no_deployment_puts_the_master_core_on_the_network(shards):
    sim = Simulator(seed=1)
    system = build_sharded_scada(sim, config=ShardedScadaConfig(shards=shards))
    assert not system.net.has_endpoint("scada-master")


def test_crashing_or_recovering_an_unknown_address_invents_no_endpoint():
    """``Network.crash``/``recover`` of an address that was never created
    raise like a send to it does, instead of adding a handler-less
    endpoint that swallows traffic (and that a partition then splits)."""
    sim = Simulator(seed=1)
    system = build_smartscada(sim)
    net = system.net
    before = net.addresses()
    for address in ("scada-master", "replica-9"):
        for action in (net.crash, net.recover):
            with pytest.raises(UnknownEndpoint):
                action(address)
        assert not net.has_endpoint(address)
    assert net.addresses() == before
    net.crash("replica-1")  # a real endpoint still goes down and comes back
    assert net.endpoint("replica-1").down
    net.recover("replica-1")
    assert not net.endpoint("replica-1").down
