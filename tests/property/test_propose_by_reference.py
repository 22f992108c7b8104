"""A PROPOSE by reference rebuilds the leader's value bytes, whichever path
the follower takes.

A follower resolves the PROPOSE's ``(client_id, sequence)`` keys from its
pool. When every key resolves to the very request object the leader's
record holds, it adopts the recorded value bytes (the simulator's fast
path, byte-identical by construction); anything else — an equal copy, a
record whose order differs from the keys — takes the full path: encode,
digest, compare. A follower that lacks a request, or holds another body
under a key, fetches the batch from the leader. Either way every replica
decides the leader's bytes and executes the leader's bodies once.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bftsmart import CounterService, GroupConfig, build_group, build_proxy
from repro.bftsmart.messages import ClientRequest, RequestBatch
from repro.bftsmart.replica import (
    _BATCH_ATTR,
    propose_by_reference,
    signing_payload,
)
from repro.crypto import KeyStore, Signer, digest
from repro.net import ConstantLatency, Network
from repro.sim import Simulator
from repro.wire import decode, encode

CLIENTS = ("client-0", "client-1")


def _group():
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, batch_wait=0.0)
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxies = {c: build_proxy(sim, net, c, config, keystore) for c in CLIENTS}
    return sim, replicas, proxies, keystore


def _signed(keystore, client: str, sequence: int, amount: int) -> ClientRequest:
    fields = (client, sequence, encode(("add", amount)), client, False)
    tag = Signer(client, keystore).sign(signing_payload(fields)).tag
    return ClientRequest(*fields, mac=tag)


def _batch(keystore, owners) -> list:
    """One request per owner index, each client's sequences increasing."""
    sequences = {client: 0 for client in CLIENTS}
    requests = []
    for i, owner in enumerate(owners):
        client = CLIENTS[owner]
        requests.append(_signed(keystore, client, sequences[client], i + 1))
        sequences[client] += 1
    return requests


def _copy(request: ClientRequest) -> ClientRequest:
    """An equal request that is another object (as a decode produces)."""
    return decode(encode(request))


@settings(max_examples=60, deadline=None)
@given(
    held=st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from(("same", "copy"))),
        min_size=1,
        max_size=5,
    ),
    swap=st.booleans(),
)
def test_the_record_fast_path_and_the_full_path_rebuild_the_same_bytes(held, swap):
    sim, replicas, proxies, keystore = _group()
    requests = _batch(keystore, [owner for owner, _how in held])
    for request, (_owner, how) in zip(requests, held):
        pooled = request if how == "same" else _copy(request)
        proxies[request.client_id].channel.send("replica-1", pooled)
    sim.run(until=0.001)
    propose = propose_by_reference(0, 0, tuple(requests), 0.0)
    value = propose.__dict__[_BATCH_ATTR][0]
    swap = swap and len(requests) > 1
    if swap:
        # A record whose order differs from the keys: its objects are the
        # pooled ones, but not at the keys' positions.
        swapped = RequestBatch(requests=(requests[1], requests[0], *requests[2:]))
        propose.__dict__[_BATCH_ATTR] = (encode(swapped), swapped)
    replicas[0].channel.send("replica-1", propose)
    sim.run(until=0.002)

    follower = replicas[1]
    instance = follower.instances[0]
    assert instance.proposal_value == value
    assert instance.proposal_digest == propose.value_digest == digest(value)
    fast = all(how == "same" for _owner, how in held) and not swap
    assert (instance.proposal_value is value) == fast
    assert follower.fetches == 0


@settings(max_examples=40, deadline=None)
@given(
    held=st.lists(
        st.tuples(
            st.integers(0, 1),
            st.tuples(*[st.sampled_from(("same", "copy", "other", "missing"))] * 3),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_every_replica_decides_the_leaders_bytes_whatever_its_pool_holds(held):
    sim, replicas, proxies, keystore = _group()
    requests = _batch(keystore, [owner for owner, _how in held])
    for request, (_owner, hows) in zip(requests, held):
        channel = proxies[request.client_id].channel
        for follower, how in zip(("replica-1", "replica-2", "replica-3"), hows):
            if how == "missing":
                continue
            pooled = {
                "same": request,
                "copy": _copy(request),
                # The client signed another body under the same key.
                "other": _signed(keystore, request.client_id, request.sequence, 100),
            }[how]
            channel.send(follower, pooled)
    # The leader gets them all in one envelope: one PROPOSE.
    proxies[CLIENTS[0]].channel.send("replica-0", RequestBatch(requests=tuple(requests)))
    sim.run(until=0.05)

    leader_value = replicas[0].decision_log[0][1]
    assert leader_value == encode(RequestBatch(requests=tuple(requests)))
    for index, follower in enumerate(replicas[1:]):
        hows = [row[1][index] for row in held]
        [(cid, value, _timestamp)] = follower.decision_log
        assert cid == 0 and value == leader_value
        fetched = any(how in ("other", "missing") for how in hows)
        assert follower.fetches == int(fetched)
        # A fetch answer carries the leader's very objects: the record's.
        assert (value is leader_value) == (
            fetched or all(how == "same" for how in hows)
        )
    # Each of the leader's bodies executed once, at every replica.
    total = len(requests) * (len(requests) + 1) // 2
    assert [replica.service.value for replica in replicas] == [total] * 4
