"""Canonical binary codec and wire-type registry for protocol messages."""

from repro.wire.codec import (
    DEFAULT_CODEC,
    Codec,
    decode,
    encode,
    encode_cached,
    same_encoding,
    uvarint_size,
)
from repro.wire.errors import DecodeError, EncodeError, WireError
from repro.wire.registry import GLOBAL_REGISTRY, TypeRegistry, wire_type

__all__ = [
    "DEFAULT_CODEC",
    "GLOBAL_REGISTRY",
    "Codec",
    "DecodeError",
    "EncodeError",
    "TypeRegistry",
    "WireError",
    "decode",
    "encode",
    "encode_cached",
    "same_encoding",
    "uvarint_size",
    "wire_type",
]
