"""Simulated digital signatures.

The slow path of BFT protocols (leader-change STOP-DATA proofs, state
transfer certificates, reconfiguration commands) uses digital signatures.
Real asymmetric crypto adds nothing to the behaviour being reproduced, so
this module simulates an EUF-CMA signature with an HMAC under the signer's
per-principal key: only the signer (and the trusted KeyStore, standing in
for the PKI) can produce a tag that verifies. The substitution is recorded
in DESIGN.md §4.

A signer's *record* ``(key, payload, tag)`` stands in for the verifier's
HMAC under the rule of :mod:`repro.crypto.mac`: only under the claimed
signer's own key object, only for that payload object, tag still compared.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass

from repro.crypto.keys import KeyStore
from repro.crypto.mac import hmac_template
from repro.wire.registry import dict_fill_init

SIGNATURE_SIZE = 32


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
        #: The signing key; a record ``(key, payload, tag)`` names it.
        self.key = keystore.signing_key(me)
        #: Pre-keyed HMAC template (key schedule run once, copied per sign).
        self._template = hmac_template(self.key)

    def sign(self, payload: bytes) -> Signature:
        return Signature(signer=self.me, tag=self._template(payload))


class Verifier:
    """Verifies signatures from any principal (stands in for a PKI)."""

    def __init__(self, keystore: KeyStore) -> None:
        self._keystore = keystore
        #: signer -> pre-keyed HMAC template, same trick as Authenticator.
        self._templates: dict = {}

    def verify(
        self, signature: Signature, payload: bytes, record: tuple | None = None
    ) -> bool:
        key = self._keystore.signing_key(signature.signer)
        if record is not None and record[0] is key and record[1] is payload:
            expected = record[2]
        else:
            template = self._templates.get(signature.signer)
            if template is None:
                template = self._templates[signature.signer] = hmac_template(key)
            expected = template(payload)
        return hmac.compare_digest(expected, signature.tag)
