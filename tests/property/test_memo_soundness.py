"""Property: the per-object records decide exactly what the full path does.

A sealer records on each :class:`Sealed` the message it encoded and the
MAC tags it computed; a client records on each :class:`ClientRequest` the
signing payload and tag. Receivers that find a matching record skip the
HMAC and the decode. These properties hold the memoised
``SecureChannel.open`` and ``ServiceReplica._verify_request`` to memo-free
references — ``hmac.new`` over the pair / signing key plus a fresh
``decode`` — on honest envelopes and on every way a record could be
misapplied: a flipped tag byte, an equal-content payload copy, a claimed
sender that is not the sealer, ``replace``/``copy.copy`` with a swapped
payload, a tag dict mutated in place, the wrong receiver, and a request
whose record was made under another client's key. ``rejected`` moves
exactly when the reference rejects.

The group's agreed outputs are records too: the first replica to execute
a request records its ``Reply`` and ``PushMessage``s on the request, and
a message travels with the bytes it encodes as the body record of its
request or push. Those cases check that a Byzantine replica executing
first never changes a correct replica's bytes, that a copied or rebuilt
request decodes its own bytes, that a forged push and a mutable message
carry no body, and that the message either proxy acts on encodes to the
voted payload.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bftsmart import EchoService, GroupConfig, build_group, build_proxy
from repro.bftsmart.byzantine import Lying
from repro.bftsmart.channel import SecureChannel
from repro.bftsmart.messages import ClientRequest, PushMessage, Reply, Sealed
from repro.bftsmart.replica import BODY_ATTR, SIGNED_ATTR, body_of
from repro.chaos.schedule import FALSIFY_OFFSET, Falsifying
from repro.core import SmartScadaConfig, make_network, proxy_frontend, proxy_hmi
from repro.core.system import build_smartscada
from repro.crypto import KeyStore, digest
from repro.crypto.mac import MAC_SIZE
from repro.neoscada.messages import ItemUpdate
from repro.neoscada.values import DataValue
from repro.net import ConstantLatency, Network
from repro.perf import PERF, clear_hot_path_caches
from repro.sim import Simulator
from repro.wire import DecodeError, decode, encode, encode_cached

KEYSTORE = KeyStore()
SIM = Simulator(seed=1)
NET = Network(SIM, latency=ConstantLatency(0.0001))
CONFIG = GroupConfig()
#: A follower: verifying on it never proposes.
REPLICA = build_group(SIM, NET, CONFIG, EchoService, KEYSTORE)[1]
PROXY_A = build_proxy(SIM, NET, "client-a", CONFIG, KEYSTORE)
PROXY_B = build_proxy(SIM, NET, "client-b", CONFIG, KEYSTORE)
#: Two receivers and the one principal that seals for them.
CHANNELS = {
    name: SecureChannel(NET.endpoint(f"probe-{name}"), KEYSTORE)
    for name in ("r0", "r1")
}
SEALER = SecureChannel(NET.endpoint("sealer"), KEYSTORE)


def reference_open(channel: SecureChannel, sealed):
    """Memo-free open: recompute the tag with ``hmac.new``, decode afresh;
    ``(message, envelope sender)`` or ``None``."""
    if not isinstance(sealed, Sealed):
        return None
    tag = sealed.tags.get(channel.address)
    if tag is None:
        return None
    key = KEYSTORE.pair_key(channel.address, sealed.sender)
    expected = hmac.new(key, sealed.payload, hashlib.sha256).digest()[:MAC_SIZE]
    if not hmac.compare_digest(expected, tag):
        return None
    try:
        return decode(sealed.payload), sealed.sender
    except DecodeError:
        return None


def reference_verify(request: ClientRequest) -> bool:
    """Memo-free request check: encode the signed fields, ``hmac.new``."""
    if len(request.mac) != 32:
        return False
    payload = encode(
        (
            request.client_id,
            request.sequence,
            request.operation,
            request.reply_to,
            request.unordered,
        )
    )
    key = KEYSTORE.signing_key(request.client_id)
    expected = hmac.new(key, payload, hashlib.sha256).digest()
    return hmac.compare_digest(expected, request.mac)


def _flip(tag: bytes, at: int) -> bytes:
    at %= len(tag)
    return tag[:at] + bytes([tag[at] ^ 0x01]) + tag[at + 1:]


def _set(obj, **fields):
    """``copy.copy`` (which keeps the record) with fields swapped in."""
    clone = copy.copy(obj)
    for name, value in fields.items():
        object.__setattr__(clone, name, value)
    return clone


ENVELOPE_CASES = (
    "intact",
    "flipped tag byte",
    "equal-content payload copy",
    "claimed sender is not the sealer",
    "replace with swapped payload",
    "copy with swapped payload",
    "copy with another envelope's payload and tags",
    "tag dict mutated in place",
    "wrong receiver",
)


def _tamper(case: str, sealed: Sealed, other: Sealed, at: int):
    """``(envelope, receiver name)`` for one misuse case."""
    receiver = CHANNELS["r0"].address
    if case == "flipped tag byte":
        return _set(sealed, tags={receiver: _flip(sealed.tags[receiver], at)}), "r0"
    if case == "equal-content payload copy":
        return _set(sealed, payload=bytes(bytearray(sealed.payload))), "r0"
    if case == "claimed sender is not the sealer":
        return _set(sealed, sender=CHANNELS["r1"].address), "r0"
    if case == "replace with swapped payload":
        return dataclasses.replace(sealed, payload=other.payload), "r0"
    if case == "copy with swapped payload":
        return _set(sealed, payload=other.payload), "r0"
    if case == "copy with another envelope's payload and tags":
        # Authentic bytes, but not the ones this record's message encodes.
        return _set(sealed, payload=other.payload, tags=other.tags), "r0"
    if case == "tag dict mutated in place":
        sealed.tags[receiver] = _flip(sealed.tags[receiver], at)
        return sealed, "r0"
    if case == "wrong receiver":
        # r1's slot holds the tag made for r0: the record has no r1 entry.
        return _set(sealed, tags={CHANNELS["r1"].address: sealed.tags[receiver]}), "r1"
    return sealed, "r0"


@settings(max_examples=300, deadline=None)
@given(
    case=st.sampled_from(ENVELOPE_CASES),
    operation=st.binary(max_size=96),
    sequence=st.integers(min_value=0, max_value=2**40),
    other_operation=st.binary(max_size=96),
    at=st.integers(min_value=0, max_value=MAC_SIZE - 1),
    vector=st.booleans(),
)
def test_open_agrees_with_hmac_and_a_fresh_decode(
    case, operation, sequence, other_operation, at, vector
):
    message = PROXY_A._sign(sequence, operation, False)
    receivers = (CHANNELS["r0"].address,)
    if vector:
        receivers += (CHANNELS["r1"].address,)
    sealed = SEALER.seal(message, receivers)
    other = SEALER.seal(PROXY_A._sign(sequence + 1, other_operation, False), receivers)
    envelope, name = _tamper(case, sealed, other, at)
    channel = CHANNELS[name]
    expected = reference_open(channel, envelope)
    rejected = channel.rejected
    opened = channel.open(envelope)
    assert opened == expected
    assert channel.rejected - rejected == (expected is None)
    if case == "intact":
        assert opened[0] is message  # served from the record, not decoded


REQUEST_CASES = (
    "intact",
    "decoded copy",
    "flipped mac byte",
    "copy with flipped mac",
    "replace with swapped operation",
    "copy with swapped operation",
    "copy with swapped sequence",
    "record made under another client's key",
    "equal to its pending entry",
    "pending entry differs",
)


def _forge(case: str, request: ClientRequest, at: int, other: bytes):
    if case == "decoded copy":
        return decode(encode(request))
    if case == "flipped mac byte":
        return dataclasses.replace(request, mac=_flip(request.mac, at))
    if case == "copy with flipped mac":
        return _set(request, mac=_flip(request.mac, at))
    if case == "replace with swapped operation":
        return dataclasses.replace(request, operation=other)
    if case == "copy with swapped operation":
        return _set(request, operation=other)
    if case == "copy with swapped sequence":
        return _set(request, sequence=request.sequence + 1)
    if case == "record made under another client's key":
        # client-b signs client-a's fields and attaches a matching record.
        fields = (
            request.client_id,
            request.sequence,
            request.operation,
            request.reply_to,
            request.unordered,
        )
        payload = encode(fields)
        tag = PROXY_B.signer.sign(payload).tag
        forged = dataclasses.replace(request, mac=tag)
        forged.__dict__[SIGNED_ATTR] = (
            (forged.client_id, forged.sequence, forged.operation,
             forged.reply_to, forged.unordered),
            (PROXY_B.signer.key, payload, tag),
        )
        return forged
    return request


@settings(max_examples=300, deadline=None)
@given(
    case=st.sampled_from(REQUEST_CASES),
    operation=st.binary(max_size=96),
    other=st.binary(max_size=96),
    sequence=st.integers(min_value=0, max_value=2**40),
    unordered=st.booleans(),
    at=st.integers(min_value=0, max_value=31),
)
def test_verify_request_agrees_with_hmac_over_the_encoded_fields(
    case, operation, other, sequence, unordered, at
):
    request = PROXY_A._sign(sequence, operation, unordered)
    pending = REPLICA.pending
    if case == "equal to its pending entry":
        pending[request.key()] = (request, 0.0)
        candidate = decode(encode(request))
    elif case == "pending entry differs":
        pending[request.key()] = (request, 0.0)
        candidate = dataclasses.replace(request, mac=_flip(request.mac, at))
    else:
        candidate = _forge(case, request, at, other)
    try:
        assert REPLICA._verify_request(candidate) == reference_verify(candidate)
    finally:
        pending.pop(request.key(), None)
    if case in ("intact", "decoded copy", "equal to its pending entry"):
        assert reference_verify(candidate)


def test_forged_requests_are_rejected_and_counted():
    """Through the replica's entry point: ``rejected_requests`` moves for
    exactly the requests the reference rejects."""
    request = PROXY_A._sign(7, b"op", False)
    forged = [
        _forge(case, request, 3, b"other-op")
        for case in (
            "flipped mac byte",
            "copy with flipped mac",
            "copy with swapped operation",
            "record made under another client's key",
        )
    ]
    before = REPLICA.stats["rejected_requests"]
    for candidate in forged:
        assert not reference_verify(candidate)
        REPLICA._on_client_request(candidate)
    assert REPLICA.stats["rejected_requests"] - before == len(forged)
    assert request.key() not in REPLICA.pending


def _watch_outputs(system, byzantine: int, seen: dict) -> None:
    """Check every Reply and PushMessage a correct replica seals against a
    fresh encode of that replica's own inputs; note who executed first."""
    for index, replica in enumerate(system.replicas):
        service = replica.service
        results: dict = {}
        own: list = []
        expected: dict = {}

        def execute(operation, ctx, _execute=service.execute, _i=index, _r=results):
            seen["first"].setdefault((ctx.client_id, ctx.sequence), _i)
            result = _r[(ctx.client_id, ctx.sequence)] = _execute(operation, ctx)
            return result

        service.execute = execute
        if index == byzantine:
            continue

        def transport(dst, message, _send=service.master._transport, _own=own):
            _own.append(message)
            _send(dst, message)

        def push(client_id, stream, order, payload, _push=replica.push, _own=own,
                 _expected=expected):
            assert payload is _own.pop(0)  # the Master's message itself
            _expected[(client_id, order)] = encode(
                PushMessage(client_id, stream, order, encode(payload))
            )
            _push(client_id, stream, order, payload)

        def send(dst, message, _send=replica.channel.send, _replica=replica,
                 _results=results, _expected=expected):
            if isinstance(message, Reply):
                fresh = Reply(
                    message.client_id,
                    message.sequence,
                    _results[(message.client_id, message.sequence)],
                    _replica.view.view_id,
                    _replica.regency,
                )
                assert encode_cached(message) == encode(fresh)
                seen["replies"].setdefault(id(message), (message, set()))[1].add(
                    _replica.address
                )
            elif isinstance(message, PushMessage):
                key = (message.client_id, message.order)
                assert encode_cached(message) == _expected.pop(key, None)
                body = message.__dict__.get(BODY_ATTR)
                if body is not None and body[0] is message.payload:
                    assert encode(body[1]) == message.payload
                seen["pushes"].setdefault(id(message), (message, set()))[1].add(
                    _replica.address
                )
            _send(dst, message)

        service.master._transport = transport
        replica.push = push
        replica.channel.send = send


@pytest.mark.parametrize(
    "behaviour", [Lying(), Falsifying()], ids=["lying", "falsifying"]
)
def test_a_byzantine_first_executor_never_changes_a_correct_replicas_bytes(behaviour):
    """Whichever replica misbehaves, and whether or not it executes a
    request first, every correct replica seals exactly the Reply and the
    PushMessages its own inputs encode to — and correct replicas do send
    one another's recorded objects."""
    byzantine_first = 0
    for byzantine in range(4):
        clear_hot_path_caches()
        sim = Simulator(seed=byzantine + 1)
        system = build_smartscada(sim, net=make_network(sim), config=SmartScadaConfig())
        items = [f"rtu.sensor.{i}" for i in range(4)]
        for item_id in items:
            system.frontend.add_item(item_id, initial=0)
        system.replicas[byzantine].behaviour = behaviour
        seen = {"first": {}, "replies": {}, "pushes": {}}
        _watch_outputs(system, byzantine, seen)
        system.start()

        def inject(_sim=sim, _system=system, _items=items):
            for op in range(30):
                yield _sim.timeout(0.002)
                _system.frontend.inject_update(_items[op % len(_items)], 10 + op)

        sim.process(inject())
        sim.run(until=sim.now + 0.5)
        byzantine_first += sum(1 for i in seen["first"].values() if i == byzantine)
        assert seen["replies"] and seen["pushes"]
        # One object sealed by several correct replicas: the records served.
        # Objects are kept in ``seen``, so an id names one message.
        assert max(len(senders) for _m, senders in seen["replies"].values()) == 3
        assert max(len(senders) for _m, senders in seen["pushes"].values()) == 3
    assert byzantine_first > 0  # some request ran on the misbehaving replica first


def _scada_replica():
    """A SCADA replica whose sends are captured, not delivered."""
    sim = Simulator(seed=1)
    system = build_smartscada(sim, net=make_network(sim), config=SmartScadaConfig())
    replica = system.replicas[0]
    sent = []
    replica.channel.send = lambda _dst, message: sent.append(message)
    return replica, sent


def _decoded_by(replica, request):
    """What ``replica`` decodes ``request``'s operation to while executing it."""
    replica._request = request
    try:
        return replica.decoded(request.operation)
    finally:
        replica._request = None


def test_a_copied_or_rebuilt_request_decodes_its_own_bytes():
    message = ItemUpdate(item_id="rtu.a", value=DataValue(7))
    other = encode(ItemUpdate(item_id="rtu.a", value=DataValue(8)))
    request = PROXY_A._sign(11, message, False)
    assert request.operation == encode(message)
    assert request.__dict__[BODY_ATTR] == (request.operation, message)
    assert _decoded_by(REPLICA, request) is message
    # Outside the request it executes, the replica decodes.
    fresh = REPLICA.decoded(request.operation)
    assert fresh == message and fresh is not message
    for case, candidate, kept in (
        ("copy with swapped operation", _set(request, operation=other), False),
        ("replace with swapped operation", dataclasses.replace(request, operation=other), True),
        ("replace", dataclasses.replace(request), True),
    ):
        decoded = _decoded_by(REPLICA, candidate)
        assert decoded == decode(candidate.operation) and decoded is not message, case
        # A rebuilt request holds no record, so its first decode is kept
        # for the group; a copy holds the stale one and decodes each time.
        assert (_decoded_by(REPLICA, candidate) is decoded) == kept, case


def test_a_push_a_falsifying_replica_forged_carries_no_body():
    replica, sent = _scada_replica()
    message = ItemUpdate(item_id="rtu.a", value=DataValue(7))
    replica.push("hmi", "scada", (1,), message)
    honest = sent.pop()
    assert honest.payload == encode(message)
    assert body_of(honest, honest.payload) is message
    replica.behaviour = Falsifying()
    replica.push("hmi", "scada", (2,), message)
    forged = sent.pop()
    assert forged.payload != encode(message)
    assert BODY_ATTR not in forged.__dict__
    assert body_of(forged, forged.payload).value.value == 7 + FALSIFY_OFFSET


def test_a_recorded_payload_is_reused_only_for_a_message_that_encodes_alike():
    replica, sent = _scada_replica()
    request = PROXY_A._sign(12, b"op", False)

    def push(message):
        replica._request, replica._pushed = request, 0
        try:
            replica.push("hmi", "scada", (1,), message)
        finally:
            replica._request = None
        return sent.pop()

    first = ItemUpdate(item_id="rtu.a", value=DataValue(1))
    recorded = push(first)
    for twin, shared in (
        (ItemUpdate(item_id="rtu.a", value=DataValue(1)), True),
        (ItemUpdate(item_id="rtu.a", value=DataValue(1.0)), False),
        (ItemUpdate(item_id="rtu.a", value=DataValue(True)), False),
    ):
        message = push(twin)
        assert message.payload == encode(twin)
        assert (message is recorded) == shared
        # The body always encodes to the payload it rides with.
        assert encode(body_of(message, message.payload)) == message.payload
        if not shared:  # the record now holds the latest builder's output
            recorded = push(first)


def test_a_mutable_message_is_never_put_on_record():
    replica, sent = _scada_replica()
    mutable = ["rtu.a", 1]
    request = PROXY_A._sign(13, mutable, False)
    assert request.operation == encode(mutable)
    assert BODY_ATTR not in request.__dict__
    assert _decoded_by(REPLICA, request) == decode(encode(mutable))
    assert BODY_ATTR not in request.__dict__  # nor by the first decode
    replica.push("hmi", "scada", (1,), mutable)
    message = sent.pop()
    assert message.payload == encode(mutable)
    assert BODY_ATTR not in message.__dict__
    # A frozen one is recorded: the proof the path was live.
    frozen = ItemUpdate(item_id="rtu.a", value=DataValue(2))
    replica.push("hmi", "scada", (2,), frozen)
    assert body_of(sent[-1], sent[-1].payload) is frozen


def test_an_equal_payload_that_is_another_object_is_decoded():
    replica, sent = _scada_replica()
    message = ItemUpdate(item_id="rtu.a", value=DataValue(7))
    request = PROXY_A._sign(14, message, False)
    replica.push("hmi", "scada", (1,), message)
    push = sent.pop()
    for carrier, field in ((request, "operation"), (push, "payload")):
        data = getattr(carrier, field)
        copied = bytes(bytearray(data))
        assert copied == data and copied is not data
        assert body_of(carrier, data) is message
        misses = PERF.stats["decode_share"].misses
        decoded = body_of(carrier, copied)
        assert decoded == message and decoded is not message
        assert PERF.stats["decode_share"].misses == misses + 1
        # A copy of the carrier holding the equal bytes decodes them too.
        assert body_of(_set(carrier, **{field: copied}), copied) is not message
    copy = _set(request, operation=bytes(bytearray(request.operation)))
    assert _decoded_by(REPLICA, copy) == message
    assert _decoded_by(REPLICA, copy) is not message


@pytest.mark.parametrize(
    "behaviour", [None, Falsifying()], ids=["honest", "falsifying"]
)
def test_the_message_a_proxy_acts_on_encodes_to_the_voted_payload(
    monkeypatch, behaviour
):
    """Both proxies read their voted pushes through ``body_of``: whatever
    it hands them encodes to the payload f+1 replicas voted for, and the
    winning push's body record serves it (no decode)."""
    clear_hot_path_caches()
    sim = Simulator(seed=1)
    system = build_smartscada(sim, net=make_network(sim), config=SmartScadaConfig())
    system.frontend.add_item("rtu.a", initial=0)
    system.frontend.add_item("rtu.valve", initial=0, writable=True)
    if behaviour is not None:
        system.replicas[2].behaviour = behaviour
    acted = {}
    for proxy, module in (
        (system.proxy_hmi, proxy_hmi),
        (system.proxy_frontends[0], proxy_frontend),
    ):
        def checked(push, data, _proxy=proxy, _name=module.__name__):
            assert data is push.payload
            assert push.__dict__[BODY_ATTR][0] is data  # served, not decoded
            voted = {
                client.pushes._delivered_digest.get((push.stream, push.order))
                for client in _proxy.bft_clients
            }
            assert digest(data) in voted
            message = body_of(push, data)
            assert encode(message) == data
            acted[_name] = acted.get(_name, 0) + 1
            return message

        monkeypatch.setattr(module, "body_of", checked)
    system.start()

    def drive():
        for value in range(1, 11):
            system.frontend.inject_update("rtu.a", value)
            yield sim.timeout(0.01)
        result = yield system.hmi.write("rtu.valve", 5)
        assert result.success

    sim.run_process(drive(), until=sim.now + 5)
    assert acted[proxy_hmi.__name__] >= 10 and acted[proxy_frontend.__name__] >= 1
