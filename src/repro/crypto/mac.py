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
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.keys import KeyStore
from repro.perf import PERF

#: Truncated MAC length in bytes (PBFT used 10; we keep 16 for margin).
MAC_SIZE = 16

#: (pair-key, payload-identity) -> (payload, tag). The pair key is
#: symmetric (``pair_key(a, b) == pair_key(b, a)``), so the tag the sender
#: computes at seal time is exactly the expected tag the receiver
#: recomputes at verify time — sharing it makes verification of honest
#: traffic a dict probe. Spoofed or tampered traffic never hits: a wrong
#: key or a different payload object lands in a different slot, so the
#: receiver still recomputes and the ``compare_digest`` check still fails.
#: Entries pin the payload bytes object, so identity keys cannot alias.
#: Evicted by clearing wholesale when full — O(1) amortized, and the few
#: in-flight entries dropped are simply recomputed.
_MAC_CACHE: dict[tuple, tuple] = {}
_MAC_CACHE_LIMIT = 8192
_MAC_STATS = PERF.stats["mac"]


@PERF.on_clear
def clear_mac_cache() -> None:
    _MAC_CACHE.clear()


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
        #: pair, so the memo key is shared with the peer's authenticator).
        self._keys: dict[str, bytes] = {}

    def mac(self, peer: str, payload: bytes) -> bytes:
        """MAC for ``payload`` on the channel between ``self.me`` and peer."""
        if type(payload) is bytes:
            key = self._keys.get(peer)
            if key is None:
                key = self._keystore.pair_key(self.me, peer)
                self._keys[peer] = key
            cache_key = (key, id(payload))
            hit = _MAC_CACHE.get(cache_key)
            if hit is not None and hit[0] is payload:
                _MAC_STATS.hits += 1
                return hit[1]
            _MAC_STATS.misses += 1
            tag = self._compute(peer, key, payload)
            if len(_MAC_CACHE) >= _MAC_CACHE_LIMIT:
                _MAC_CACHE.clear()
            _MAC_CACHE[cache_key] = (payload, tag)
            return tag
        key = self._keystore.pair_key(self.me, peer)
        return self._compute(peer, key, payload)

    def _compute(self, peer: str, key: bytes, payload: bytes) -> bytes:
        template = self._templates.get(peer)
        if template is None:
            template = self._templates[peer] = hmac_template(key)
        return template(payload)[:MAC_SIZE]

    def verify(self, peer: str, payload: bytes, tag: bytes) -> bool:
        """Constant-time check of ``tag`` against the expected MAC."""
        return hmac.compare_digest(self.mac(peer, payload), tag)
