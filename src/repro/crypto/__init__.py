"""Authentication substrate: digests, HMAC channels, simulated signatures."""

from repro.crypto.digest import DIGEST_SIZE, combine, digest, sha256
from repro.crypto.keys import KeyStore
from repro.crypto.mac import MAC_SIZE, Authenticator
from repro.crypto.signatures import SIGNATURE_SIZE, Signature, Signer, Verifier

__all__ = [
    "DIGEST_SIZE",
    "MAC_SIZE",
    "SIGNATURE_SIZE",
    "Authenticator",
    "KeyStore",
    "Signature",
    "Signer",
    "Verifier",
    "combine",
    "digest",
    "sha256",
]
