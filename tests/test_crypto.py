"""Unit tests for digests, MACs and simulated signatures."""

import hashlib
import hmac

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto import (
    DIGEST_SIZE,
    MAC_SIZE,
    Authenticator,
    KeyStore,
    Signer,
    Verifier,
    combine,
    digest,
    sha256,
)
from repro.crypto.mac import hmac_template
from repro.perf import PERF


def test_digest_is_deterministic_and_truncated():
    assert digest(b"abc") == digest(b"abc")
    assert len(digest(b"abc")) == DIGEST_SIZE
    assert digest(b"abc") != digest(b"abd")


def test_sha256_rejects_non_bytes():
    with pytest.raises(TypeError):
        sha256("string")


def test_combine_is_unambiguous():
    assert combine(b"ab", b"c") != combine(b"a", b"bc")
    assert combine(b"ab", b"c") == combine(b"ab", b"c")


def test_pair_keys_are_symmetric():
    ks = KeyStore()
    assert ks.pair_key("a", "b") == ks.pair_key("b", "a")
    assert ks.pair_key("a", "b") != ks.pair_key("a", "c")


def test_different_root_secret_gives_different_keys():
    assert KeyStore(b"one").pair_key("a", "b") != KeyStore(b"two").pair_key("a", "b")


def test_empty_root_secret_rejected():
    with pytest.raises(ValueError):
        KeyStore(b"")


def test_mac_roundtrip():
    ks = KeyStore()
    alice = Authenticator("alice", ks)
    bob = Authenticator("bob", ks)
    tag = alice.mac("bob", b"payload")
    assert len(tag) == MAC_SIZE
    assert bob.verify("alice", b"payload", tag)
    assert not bob.verify("alice", b"tampered", tag)


def test_mac_from_wrong_keystore_rejected():
    good, bad = KeyStore(b"good"), KeyStore(b"bad")
    mallory = Authenticator("alice", bad)  # impersonation attempt
    bob = Authenticator("bob", good)
    tag = mallory.mac("bob", b"payload")
    assert not bob.verify("alice", b"payload", tag)


def test_signature_roundtrip():
    ks = KeyStore()
    signer = Signer("replica-2", ks)
    verifier = Verifier(ks)
    sig = signer.sign(b"stop-data")
    assert verifier.verify(sig, b"stop-data")
    assert not verifier.verify(sig, b"stop-data!")


def test_signature_binds_signer_identity():
    ks = KeyStore()
    verifier = Verifier(ks)
    sig = Signer("replica-2", ks).sign(b"m")
    forged = type(sig)(signer="replica-3", tag=sig.tag)
    assert not verifier.verify(forged, b"m")


def test_signature_tag_length_enforced():
    from repro.crypto import Signature

    with pytest.raises(ValueError):
        Signature(signer="x", tag=b"short")


# -- hmac_template: RFC 2104 on bare hashlib states == the hmac module -------


def _reference(key: bytes, message) -> bytes:
    return hmac.new(key, message, hashlib.sha256).digest()


@pytest.mark.parametrize("key_length", [1, 16, 32, 64, 65, 200])
def test_hmac_template_matches_hmac_module(key_length):
    # 64 is SHA-256's block size: at 65 the key is hashed first.
    key = bytes(range(1, key_length + 1))
    tag = hmac_template(key)
    for message in (b"", b"x", b"m" * 63, b"m" * 64, b"m" * 65, bytes(1024)):
        expected = _reference(key, message)
        assert tag(message) == expected
        assert tag(bytearray(message)) == expected
        assert tag(memoryview(message)) == expected
    # One template, many tags: no state leaks from call to call.
    assert tag(b"first") == _reference(key, b"first")
    assert tag(b"") == _reference(key, b"")


@given(st.binary(min_size=1, max_size=200), st.binary(max_size=2048))
def test_hmac_template_matches_hmac_module_on_random_input(key, message):
    assert hmac_template(key)(message) == _reference(key, message)


def test_tags_are_plain_hmac_sha256_and_tampering_still_fails():
    # Whatever path computes them, the bytes on the wire are HMAC-SHA256
    # under the pair / signing key, and a changed payload is rejected.
    ks = KeyStore()
    alice, bob = Authenticator("alice", ks), Authenticator("bob", ks)
    payload = bytes(range(120))
    tag = alice.mac("bob", payload)
    assert tag == _reference(ks.pair_key("alice", "bob"), payload)[:MAC_SIZE]
    assert bob.verify("alice", payload, tag)
    assert not bob.verify("alice", payload + b"!", tag)
    sig = Signer("alice", ks).sign(payload)
    assert sig.tag == _reference(ks.signing_key("alice"), payload)
    assert Verifier(ks).verify(sig, payload)
    assert not Verifier(ks).verify(sig, payload[:-1])


def test_memo_hit_still_rejects_tampered_tag_and_fresh_payload_object():
    # A sender's record (key, payload, tag) supplies the receiver's
    # expected tag only under the receiver's key for that sender and only
    # for the very payload object it covers. A hit still compares the
    # received tag, and an equal-content payload in a different object, a
    # record under another key or no record at all is recomputed to the
    # same verdicts.
    ks = KeyStore()
    alice, bob = Authenticator("alice", ks), Authenticator("bob", ks)
    payload = bytes(range(200))
    tag = alice.mac("bob", payload)
    record = (alice.key("bob"), payload, tag)
    assert record[0] is bob.key("alice")  # one key object per pair
    hits = PERF.stats["mac"].hits
    assert bob.verify("alice", payload, tag, record)
    assert PERF.stats["mac"].hits == hits + 1  # served from the record
    tampered = bytes([tag[0] ^ 1]) + tag[1:]
    assert not bob.verify("alice", payload, tampered, record)
    assert PERF.stats["mac"].hits == hits + 2  # a hit, and still rejected

    twin = bytes(bytearray(payload))  # equal content, different object
    assert twin == payload and twin is not payload
    misses = PERF.stats["mac"].misses
    assert bob.verify("alice", twin, tag, record)
    assert PERF.stats["mac"].misses == misses + 1  # recomputed, not aliased
    assert not bob.verify("alice", twin, tampered, record)
    carol = Authenticator("carol", ks)
    assert not carol.verify("alice", payload, tag, record)  # another key
    assert PERF.stats["mac"].misses == misses + 3
    assert bob.verify("alice", payload, tag) and not bob.verify("alice", payload, tampered)

    verifier = Verifier(ks)
    signer = Signer("alice", ks)
    sig = signer.sign(payload)
    signed = (signer.key, payload, sig.tag)
    forged = type(sig)(signer="alice", tag=bytes([sig.tag[0] ^ 1]) + sig.tag[1:])
    for rec in (signed, None):
        assert verifier.verify(sig, payload, rec)
        assert not verifier.verify(forged, payload, rec)
        assert verifier.verify(sig, twin, rec) and not verifier.verify(forged, twin, rec)
    # A record under alice's key says nothing about a signature claimed by bob.
    assert not verifier.verify(type(sig)(signer="bob", tag=sig.tag), payload, signed)
