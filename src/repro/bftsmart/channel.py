"""Authenticated channels between protocol participants.

Wraps every protocol message in a :class:`Sealed` envelope carrying HMAC
tags, standing in for the TLS/shared-secret channels of the original
deployment. Receivers that fail verification drop the message silently
(and count it), which is what defeats spoofed traffic in the tests.

Hot-path layout
---------------
Sealing goes through :func:`repro.wire.encode_cached`, so a message
broadcast (or retransmitted) repeatedly is serialized once and the same
payload ``bytes`` object is shared by every receiver's envelope. The
sealer also records on each :class:`Sealed` the message it encoded and
the MAC tags it computed (``_SEALED``, a :mod:`repro.wire.record`), so a
receiver holding that very envelope checks its tag without hashing and
takes the sender's immutable message without decoding.
Forged, tampered or copied envelopes carry no matching record and take
the full HMAC + decode path. Each send hands the network the envelope's
exact wire size, computed arithmetically (a cached per-receiver-set overhead
plus the payload field; :func:`sealed_wire_size` is the reference the
tests compare it with) instead of a sizing encode per send.

All of it is behaviour-invisible: only frozen-dataclass messages are
shared, every receiver still compares its tag in constant time, and the
size hint is exact by construction (asserted in the tests).
"""

from __future__ import annotations

from repro.bftsmart.messages import Sealed
from repro.crypto import Authenticator, KeyStore
from repro.crypto.mac import MAC_SIZE
from repro.net.endpoint import Endpoint
from repro.perf import PERF
from repro.wire import (
    GLOBAL_REGISTRY,
    DecodeError,
    decode,
    encode_cached,
    frozen,
    record,
    recorded,
    uvarint_size,
)

#: ``1`` dataclass tag + varint type id + ``1`` field-count byte of Sealed.
_SEALED_PREFIX_SIZE = 1 + uvarint_size(GLOBAL_REGISTRY.id_of(Sealed)) + 1

#: Wire size of one MAC tag in the tag dict (BYTES tag + length + tag).
_TAG_SIZE = 1 + uvarint_size(MAC_SIZE) + MAC_SIZE

#: Wire size (STR tag + length varint + UTF-8 bytes) per address string.
#: Bounded by the number of distinct endpoint addresses in a deployment.
_STR_WIRE_SIZE: dict[str, int] = {}


def _str_wire_size(value: str) -> int:
    size = _STR_WIRE_SIZE.get(value)
    if size is None:
        encoded_len = len(value.encode("utf-8"))
        size = 1 + uvarint_size(encoded_len) + encoded_len
        _STR_WIRE_SIZE[value] = size
    return size


def sealed_wire_size(sealed: Sealed) -> int:
    """Exact canonical wire size of a :class:`Sealed` envelope.

    Computed arithmetically from the TLV layout so the network layer can
    skip its sizing encode. Must stay in lockstep with the codec; the
    channel tests assert ``sealed_wire_size(s) == len(encode(s))``.
    """
    size = _SEALED_PREFIX_SIZE + _str_wire_size(sealed.sender)
    payload_len = len(sealed.payload)
    size += 1 + uvarint_size(payload_len) + payload_len
    tags = sealed.tags
    size += 1 + uvarint_size(len(tags))
    for receiver, tag in tags.items():
        size += _str_wire_size(receiver)
        size += 1 + uvarint_size(len(tag)) + len(tag)
    return size


#: Record under which :meth:`SecureChannel.seal` and
#: :meth:`SecureChannel.multicast` keep, on each :class:`Sealed` they
#: build and keyed by its payload, ``(message, {receiver: (key, payload,
#: tag)})``: the message they encoded (``None`` unless it is
#: :func:`~repro.wire.frozen`, so receivers may share it) and the MAC
#: records they computed (see :mod:`repro.crypto.mac`).
_SEALED = "_seal_memo"
_DECODE_STATS = PERF.stats["decode_share"]


class SecureChannel:
    """Seals outgoing and opens incoming protocol messages for one node."""

    def __init__(self, endpoint: Endpoint, keystore: KeyStore) -> None:
        self.endpoint = endpoint
        #: The network the endpoint is attached to: a send checks
        #: ``endpoint.down`` and hands the envelope to it directly.
        self.network = endpoint.network
        #: The endpoint's address (fixed for the endpoint's lifetime).
        self.address = endpoint.address
        self.auth = Authenticator(endpoint.address, keystore)
        #: Messages dropped because of bad MACs or undecodable payloads.
        self.rejected = 0
        #: receivers -> envelope bytes besides the payload field (see
        #: :meth:`_overhead`).
        self._overheads: dict = {}

    # -- sending -------------------------------------------------------------

    def _overhead(self, receivers) -> int:
        """Wire size of an envelope from this node, minus its payload field.

        ``receivers`` is one address (a single-tag envelope) or a tuple
        (a MAC vector). Every tag is MAC_SIZE bytes, so for a fixed
        receiver set the only per-send variable is the payload length.
        """
        size = self._overheads.get(receivers)
        if size is None:
            group = (receivers,) if receivers.__class__ is str else receivers
            size = _SEALED_PREFIX_SIZE + _str_wire_size(self.address)
            size += 1 + uvarint_size(len(group))
            for receiver in group:
                size += _str_wire_size(receiver) + _TAG_SIZE
            self._overheads[receivers] = size
        return size

    def seal(self, message, receivers) -> Sealed:
        """One envelope for ``message`` carrying a MAC tag per receiver."""
        payload = encode_cached(message)
        mac = self.auth.mac
        tags = {}
        records = {}
        for receiver in receivers:
            tags[receiver] = mac(receiver, payload, records)
        sealed = Sealed(sender=self.address, payload=payload, tags=tags)
        shared = message if frozen(message.__class__) else None
        record(sealed, _SEALED, (shared, records), payload)
        return sealed

    def send(self, dst: str, message) -> None:
        """Seal and send to a single receiver."""
        if self.endpoint.down:
            return
        payload = encode_cached(message)
        records = {}
        tag = self.auth.mac(dst, payload, records)
        sealed = Sealed(sender=self.address, payload=payload, tags={dst: tag})
        shared = message if frozen(message.__class__) else None
        record(sealed, _SEALED, (shared, records), payload)
        overhead = self._overheads.get(dst) or self._overhead(dst)
        self.network.send(
            self.address,
            dst,
            sealed,
            type(message).__name__,
            overhead + 1 + uvarint_size(len(payload)) + len(payload),
        )

    def multicast(self, receivers, message) -> None:
        """Send the same message to each receiver in its own envelope.

        Unlike :meth:`broadcast` the receivers each get a single-tag
        envelope (what a client multicasting a request produces), but the
        inner payload is encoded once and the same ``bytes`` object is
        shared by every envelope — byte-identical on the wire to sending
        one at a time, minus the redundant encodes.
        """
        if self.endpoint.down:
            return
        payload = encode_cached(message)
        shared = message if frozen(message.__class__) else None
        kind = type(message).__name__
        mac = self.auth.mac
        sender = self.address
        send = self.network.send
        overhead = self._overhead
        payload_part = 1 + uvarint_size(len(payload)) + len(payload)
        for receiver in receivers:
            records = {}
            tag = mac(receiver, payload, records)
            sealed = Sealed(sender=sender, payload=payload, tags={receiver: tag})
            record(sealed, _SEALED, (shared, records), payload)
            send(sender, receiver, sealed, kind, overhead(receiver) + payload_part)

    def broadcast(self, receivers, message, include_self: bool = False) -> None:
        """Seal once with a MAC vector and send to every receiver.

        The single :class:`Sealed` envelope (and thus the single payload
        ``bytes`` object) is shared by all receivers, and its wire size is
        computed once for the whole multicast.

        With ``include_self`` the caller's own copy is delivered through
        the loopback path, keeping self-messages in the same code path as
        peer messages (as BFT-SMaRt does).
        """
        if self.endpoint.down:
            return
        receivers = tuple(receivers)  # the overhead cache key; no copy of a tuple
        sealed = self.seal(message, receivers)
        payload = sealed.payload
        size_hint = (
            self._overhead(receivers) + 1 + uvarint_size(len(payload)) + len(payload)
        )
        kind = type(message).__name__
        send = self.network.send
        sender = self.address
        for receiver in receivers:
            if receiver == sender and not include_self:
                continue
            send(sender, receiver, sealed, kind, size_hint)

    # -- receiving -----------------------------------------------------------

    def open(self, sealed: Sealed):
        """Verify and decode; returns ``(message, sender)`` or ``None``.

        ``sender`` is the envelope's, whose MAC was just verified: the
        one identity a receiver may count a vote under. A matching
        sealer's record (``_SEALED``) stands in for both checks.
        """
        if not isinstance(sealed, Sealed):
            self.rejected += 1
            return None
        tag = sealed.tags.get(self.address)
        if tag is None:
            self.rejected += 1
            return None
        payload = sealed.payload
        memo = recorded(sealed, _SEALED, payload)
        mac = memo[1].get(self.address) if memo is not None else None
        if not self.auth.verify(sealed.sender, payload, tag, mac):
            self.rejected += 1
            return None
        if mac is not None and memo[0] is not None:
            _DECODE_STATS.hits += 1
            return memo[0], sealed.sender
        _DECODE_STATS.misses += 1
        try:
            return decode(payload), sealed.sender
        except DecodeError:
            self.rejected += 1
            return None
