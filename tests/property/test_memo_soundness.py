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
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import hmac

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bftsmart import EchoService, GroupConfig, build_group, build_proxy
from repro.bftsmart.channel import SecureChannel
from repro.bftsmart.messages import ClientRequest, Sealed
from repro.bftsmart.replica import SIGNED_ATTR
from repro.crypto import KeyStore
from repro.crypto.mac import MAC_SIZE
from repro.net import ConstantLatency, Network
from repro.sim import Simulator
from repro.wire import DecodeError, decode, encode

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
