"""Message authentication codes for point-to-point and multicast channels.

BFT-SMaRt authenticates its replica-to-replica and client-to-replica
channels with HMACs rather than signatures on the fast path; consensus
messages that must convince *all* replicas carry a MAC vector (one MAC per
receiver), the classic PBFT authenticator construction.

On the hot path an :class:`Authenticator` keeps one pre-keyed template
per peer (:func:`hmac_template`: the inner and outer SHA-256 states with
the padded key already absorbed), so producing a tag is two
``copy()/update()`` pairs instead of a fresh key schedule (two extra
SHA-256 compressions) per message — the cached-authenticator optimisation
BFT-SMaRt itself ships.

A sender hands its receivers what it computed as a *record*
``(key, payload, tag)`` (the channel stores it on the envelope). The pair
key is symmetric and the KeyStore hands out one key object per pair, so
the tag a sender computed is exactly the tag its receiver would
recompute: :meth:`Authenticator.verify` compares it without hashing when
the record was made under the receiver's own key object for the claimed
peer and for the very payload object being checked. Anything else — a wrong
key, a different sender, an equal-content copy — is recomputed, and the
caller still runs ``compare_digest`` against the tag on the wire.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.keys import KeyStore
from repro.perf import PERF

#: Truncated MAC length in bytes (PBFT used 10; we keep 16 for margin).
MAC_SIZE = 16

_MAC_STATS = PERF.stats["mac"]

_SHA256_BLOCK = 64
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))


def hmac_template(key: bytes):
    """Pre-keyed HMAC-SHA256: returns ``payload -> 32-byte tag``.

    RFC 2104 spelled out on ``hashlib`` objects: the key (hashed first when
    longer than a block, then zero-padded) is XORed with the ipad/opad
    bytes and absorbed once into an inner and an outer SHA-256 state; a
    tag is ``outer.copy().update(inner.copy().update(payload).digest())``.
    Byte-identical to ``hmac.new(key, payload, sha256).digest()``, minus
    the Python-level ``hmac.HMAC`` wrapper calls, which cost more than the
    hashing for protocol-sized payloads. (``hmac.digest()``, the one-shot
    C path, re-runs the key schedule per call and is slower still.)
    """
    sha256 = hashlib.sha256
    if len(key) > _SHA256_BLOCK:
        key = sha256(key).digest()
    key = key.ljust(_SHA256_BLOCK, b"\0")
    copy_inner = sha256(key.translate(_IPAD)).copy
    copy_outer = sha256(key.translate(_OPAD)).copy

    def tag(payload) -> bytes:
        inner = copy_inner()
        inner.update(payload)
        outer = copy_outer()
        outer.update(inner.digest())
        return outer.digest()

    return tag


class Authenticator:
    """Computes and verifies pairwise HMACs for one principal."""

    def __init__(self, me: str, keystore: KeyStore) -> None:
        self.me = me
        self._keystore = keystore
        #: peer -> pre-keyed :func:`hmac_template` (key schedule already run).
        self._templates: dict = {}
        #: peer -> shared pair key (the KeyStore returns one object per
        #: pair, so a record's key is the peer authenticator's object too).
        self._keys: dict[str, bytes] = {}

    def key(self, peer: str) -> bytes:
        """The pair key shared with ``peer`` (one object per pair)."""
        key = self._keys.get(peer)
        if key is None:
            key = self._keys[peer] = self._keystore.pair_key(self.me, peer)
        return key

    def mac(self, peer: str, payload: bytes, records: dict | None = None) -> bytes:
        """MAC for ``payload`` on the channel between ``self.me`` and peer.

        A sender passes ``records`` (a dict) to have the record ``(key,
        payload, tag)`` its receiver's :meth:`verify` takes stored in it
        under ``peer``.
        """
        _MAC_STATS.misses += 1
        template = self._templates.get(peer)
        if template is None:
            template = self._templates[peer] = hmac_template(self.key(peer))
        tag = template(payload)[:MAC_SIZE]
        if records is not None:
            records[peer] = (self._keys[peer], payload, tag)
        return tag

    def verify(
        self, peer: str, payload: bytes, tag: bytes, record: tuple | None = None
    ) -> bool:
        """Constant-time check of ``tag`` against the expected MAC.

        ``record`` is a sender's ``(key, payload, tag)``; its tag stands
        for the expected MAC only if it was made under this channel's key
        for this very payload object, and is recomputed otherwise.
        """
        if record is not None:
            key = self._keys.get(peer)
            if key is None:
                key = self.key(peer)
            if record[0] is key and record[1] is payload:
                _MAC_STATS.hits += 1
                return hmac.compare_digest(record[2], tag)
        return hmac.compare_digest(self.mac(peer, payload), tag)
