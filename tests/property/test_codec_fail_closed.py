"""The codec fails closed: whatever the bytes, ``decode`` returns a value or
raises :class:`DecodeError`.

Every ingress (the secure channel, the replica's batch and
reconfiguration decodes, the proxies, the WAL and checkpoint readers)
catches exactly ``DecodeError``. Any other exception escaping the codec
would unwind the receiver's handler — one authenticated client or
replica taking down every member it can reach. The seeds are the
encodings of a sample of every registered wire type; hypothesis
overwrites, inserts, deletes and truncates bytes in them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bftsmart.messages import ClientRequest
from repro.neoscada.values import Quality
from repro.wire import GLOBAL_REGISTRY, DecodeError, decode, encode
from tests.test_wire_codec_caching import _REGISTERED, sample_instance

#: One seed frame per registered type and salt.
SEEDS = [encode(sample_instance(cls, salt)) for _tid, cls in _REGISTERED for salt in (0, 3)]

_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("set", "insert", "delete")),
        st.integers(min_value=0),
        # Tag bytes half the time: a swapped tag is what reaches the
        # constructors with the wrong shape.
        st.one_of(
            st.integers(min_value=0x00, max_value=0x0B),
            st.integers(min_value=0, max_value=255),
        ),
    ),
    min_size=1,
    max_size=4,
)


def _mutate(frame: bytes, edits, cut) -> bytes:
    data = bytearray(frame)
    for kind, position, byte in edits:
        position %= len(data) + 1
        if kind == "insert" or position == len(data):
            data.insert(position, byte)
        elif kind == "set":
            data[position] = byte
        else:
            del data[position]
    return bytes(data[: max(1, len(data) - cut)])


def _outcome(data):
    """The decoded value, or ``DecodeError``; anything else propagates."""
    try:
        return decode(data)
    except DecodeError:
        return DecodeError


@settings(max_examples=400, deadline=None)
@given(
    seed=st.sampled_from(SEEDS),
    edits=_EDITS,
    cut=st.integers(min_value=0, max_value=3),
)
def test_a_mutated_frame_decodes_or_raises_decode_error(seed, edits, cut):
    frame = _mutate(seed, edits, cut)
    outcome = _outcome(frame)
    # A frame read in place from a receive buffer agrees with the bytes.
    assert _outcome(memoryview(bytearray(frame))) == outcome


def _uvarint(value: int) -> bytes:
    out = bytearray()
    while value >= 0x80:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


DATACLASS_ID = _uvarint(GLOBAL_REGISTRY.id_of(ClientRequest))
ENUM_ID = _uvarint(GLOBAL_REGISTRY.id_of(Quality))


@pytest.mark.parametrize(
    "frame",
    [
        # A dict whose key decodes to a list (or holds one).
        b"\x09\x01\x07\x00\x00",
        b"\x09\x01\x08\x01\x09\x00\x00",
        # The dataclass tag naming an enum's type id.
        b"\x0a" + ENUM_ID + b"\x00",
        # The enum tag naming a dataclass's type id, with any raw value.
        b"\x0b" + DATACLASS_ID + b"\x00",
        b"\x0b" + DATACLASS_ID + b"\x07\x00",
        # An enum value that is unhashable.
        b"\x0b" + ENUM_ID + b"\x07\x00",
    ],
    ids=["list-key", "tuple-key-holding-dict", "dataclass-tag-enum-id",
         "enum-tag-dataclass-id", "enum-tag-dataclass-id-list", "enum-list-value"],
)
def test_each_shape_that_used_to_escape_is_a_decode_error(frame):
    with pytest.raises(DecodeError):
        decode(frame)
