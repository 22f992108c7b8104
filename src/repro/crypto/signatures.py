"""Simulated digital signatures.

The slow path of BFT protocols (leader-change STOP-DATA proofs, state
transfer certificates, reconfiguration commands) uses digital signatures.
Real asymmetric crypto adds nothing to the behaviour being reproduced, so
this module simulates an EUF-CMA signature with an HMAC under the signer's
per-principal key: only the signer (and the trusted KeyStore, standing in
for the PKI) can produce a tag that verifies. The substitution is recorded
in DESIGN.md §4.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass

from repro.crypto.keys import KeyStore
from repro.crypto.mac import hmac_template
from repro.perf import PERF
from repro.wire.registry import dict_fill_init

SIGNATURE_SIZE = 32

#: (signing-key, payload-identity) -> (payload, tag). Seeded by the signer
#: and hit by every verifier sharing the KeyStore: the expected tag a
#: verifier recomputes is exactly the tag the signer produced, and the
#: signing-payload bytes object is shared across replicas. Only the
#: *expected* tag is cached — every caller still runs its own
#: ``compare_digest`` against the received tag, so forged or tampered
#: signatures fail exactly as before. Entries pin the payload object.
_SIG_CACHE: dict[tuple, tuple] = {}
_SIG_CACHE_LIMIT = 8192


@PERF.on_clear
def clear_signature_cache() -> None:
    _SIG_CACHE.clear()


def _remember(key: bytes, payload: bytes, tag: bytes) -> None:
    if len(_SIG_CACHE) >= _SIG_CACHE_LIMIT:
        _SIG_CACHE.clear()
    _SIG_CACHE[(key, id(payload))] = (payload, tag)


@dict_fill_init  # one per signed request verified: as hot as a wire type
@dataclass(frozen=True)
class Signature:
    """A detached signature over some payload."""

    signer: str
    tag: bytes

    def __post_init__(self) -> None:
        if len(self.tag) != SIGNATURE_SIZE:
            raise ValueError(f"signature tag must be {SIGNATURE_SIZE} bytes")


class Signer:
    """Produces signatures on behalf of one principal."""

    def __init__(self, me: str, keystore: KeyStore) -> None:
        self.me = me
        self._key = keystore.signing_key(me)
        #: Pre-keyed HMAC template (key schedule run once, copied per sign).
        self._template = hmac_template(self._key)

    def sign(self, payload: bytes) -> Signature:
        tag = self._template(payload)
        if type(payload) is bytes:
            _remember(self._key, payload, tag)
        return Signature(signer=self.me, tag=tag)


class Verifier:
    """Verifies signatures from any principal (stands in for a PKI)."""

    def __init__(self, keystore: KeyStore) -> None:
        self._keystore = keystore
        #: signer -> pre-keyed HMAC template, same trick as Authenticator.
        self._templates: dict = {}

    def verify(self, signature: Signature, payload: bytes) -> bool:
        key = self._keystore.signing_key(signature.signer)
        memoizable = type(payload) is bytes
        if memoizable:
            hit = _SIG_CACHE.get((key, id(payload)))
            if hit is not None and hit[0] is payload:
                return hmac.compare_digest(hit[1], signature.tag)
        template = self._templates.get(signature.signer)
        if template is None:
            template = self._templates[signature.signer] = hmac_template(key)
        expected = template(payload)
        if memoizable:
            _remember(key, payload, expected)
        return hmac.compare_digest(expected, signature.tag)
