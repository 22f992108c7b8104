"""Unit tests for the wire codec and type registry."""

import enum
from dataclasses import dataclass

import pytest

from repro.wire import Codec, DecodeError, EncodeError, TypeRegistry
from repro.wire.codec import MAX_DEPTH

registry = TypeRegistry()
codec = Codec(registry)


@registry.register(900)
@dataclass(frozen=True)
class Point:
    x: int
    y: int


@registry.register(901)
@dataclass(frozen=True)
class Wrapper:
    label: str
    inner: Point
    extras: list


@registry.register(902)
class Color(enum.Enum):
    RED = 1
    BLUE = 2


SCALARS = [
    None,
    True,
    False,
    0,
    1,
    -1,
    2**70,
    -(2**70),
    0.0,
    -2.5,
    1e300,
    "",
    "héllo ✓",
    b"",
    b"\x00\xff" * 10,
]


@pytest.mark.parametrize("value", SCALARS, ids=repr)
def test_scalar_roundtrip(value):
    assert codec.decode(codec.encode(value)) == value


def test_container_roundtrip():
    value = {"a": [1, 2, (3, "x")], 5: None, "nested": {"k": b"v"}}
    assert codec.decode(codec.encode(value)) == value


def test_tuple_and_list_are_distinct():
    assert codec.decode(codec.encode((1, 2))) == (1, 2)
    assert codec.decode(codec.encode([1, 2])) == [1, 2]
    assert isinstance(codec.decode(codec.encode((1, 2))), tuple)


def test_dataclass_roundtrip():
    value = Wrapper(label="w", inner=Point(3, -4), extras=[Point(0, 0), Color.RED])
    assert codec.decode(codec.encode(value)) == value


def test_enum_roundtrip():
    assert codec.decode(codec.encode(Color.BLUE)) is Color.BLUE


def test_encoding_is_canonical():
    a = Wrapper("w", Point(1, 2), [])
    b = Wrapper("w", Point(1, 2), [])
    assert codec.encode(a) == codec.encode(b)


def test_unregistered_dataclass_rejected():
    @dataclass
    class NotRegistered:
        x: int

    with pytest.raises(EncodeError):
        codec.encode(NotRegistered(1))


def test_unencodable_type_rejected():
    with pytest.raises(EncodeError):
        codec.encode(object())


def test_trailing_bytes_rejected():
    data = codec.encode(5) + b"\x00"
    with pytest.raises(DecodeError):
        codec.decode(data)


def test_truncated_input_rejected():
    data = codec.encode("hello world")
    for cut in range(1, len(data)):
        with pytest.raises(DecodeError):
            codec.decode(data[:cut])


def test_unknown_tag_rejected():
    with pytest.raises(DecodeError):
        codec.decode(b"\xfe")


def test_unknown_type_id_rejected():
    # Hand-craft a dataclass frame with a bogus type id.
    with pytest.raises(DecodeError):
        codec.decode(bytes([0x0A, 0x7F, 0x00]))


def test_invalid_enum_value_rejected():
    # Color frame with value 99.
    frame = bytearray(codec.encode(Color.RED))
    bad = codec.encode(99)
    # _ENUM tag + varint(902) is 3 bytes; swap payload.
    with pytest.raises(DecodeError):
        codec.decode(bytes(frame[:3]) + bad)


def test_duplicate_type_id_rejected():
    reg = TypeRegistry()

    @reg.register(1)
    @dataclass
    class A:
        x: int

    with pytest.raises(ValueError):

        @reg.register(1)
        @dataclass
        class B:
            x: int


def test_non_dataclass_registration_rejected():
    reg = TypeRegistry()
    with pytest.raises(TypeError):
        reg.register(1)(int)


def test_field_count_mismatch_rejected():
    # Encode a Point, then doctor the field count.
    data = bytearray(codec.encode(Point(1, 2)))
    # Layout: tag, varint type id (2 bytes for 900), field count, ...
    assert data[0] == 0x0A
    data[3] = 3  # claim three fields
    with pytest.raises(DecodeError):
        codec.decode(bytes(data))


def test_large_collection_roundtrip():
    value = list(range(5000))
    assert codec.decode(codec.encode(value)) == value


def test_deeply_nested_roundtrip():
    value = [1]
    for _ in range(50):
        value = [value]
    assert codec.decode(codec.encode(value)) == value


def _nested(levels, wrap=lambda inner: [inner]):
    value = 1
    for _ in range(levels):
        value = wrap(value)
    return value


def test_nesting_beyond_the_bound_is_a_codec_error_not_a_recursion_error():
    # A 10 KB frame of 5,000 nested one-element lists used to end in
    # RecursionError, which no ingress site catches (they catch DecodeError).
    with pytest.raises(DecodeError):
        codec.decode(b"\x07\x01" * 5000 + b"\x00")
    with pytest.raises(EncodeError):
        codec.encode(_nested(5000))
    # The bound is exact, the same in both directions and for every kind
    # of container.
    assert codec.decode(codec.encode(_nested(MAX_DEPTH))) == _nested(MAX_DEPTH)
    with pytest.raises(EncodeError):
        codec.encode(_nested(MAX_DEPTH + 1))
    with pytest.raises(DecodeError):
        codec.decode(b"\x07\x01" * (MAX_DEPTH + 1) + b"\x00")
    for wrap in (
        lambda inner: (inner,),
        lambda inner: {"k": inner},
        lambda inner: Wrapper("w", Point(0, 0), [inner]),
    ):
        assert codec.decode(codec.encode(_nested(32, wrap))) == _nested(32, wrap)
        with pytest.raises(EncodeError):
            codec.encode(_nested(MAX_DEPTH + 1, wrap))


# -- default-tail backward compatibility -------------------------------------
#
# A schema may grow by appending fields with defaults (e.g. ClientRequest
# gained ``trace_id``); old frames encoded before the addition must still
# decode, with the defaults filled in.


def test_trace_id_roundtrip_on_client_request():
    from repro.bftsmart.messages import ClientRequest

    plain = ClientRequest(
        client_id="c1", sequence=7, operation=b"op", reply_to="c1"
    )
    stamped = ClientRequest(
        client_id="c1", sequence=7, operation=b"op", reply_to="c1",
        trace_id="op:31",
    )
    from repro.wire import decode, encode

    assert decode(encode(plain)) == plain
    assert decode(encode(stamped)) == stamped
    assert decode(encode(plain)).trace_id == ""


def test_old_frame_decodes_with_default_tail():
    # Simulate a schema upgrade: V1 lacks the trailing defaulted field.
    old_reg = TypeRegistry()
    old_codec = Codec(old_reg)

    @old_reg.register(950)
    @dataclass(frozen=True)
    class Record:  # noqa: F811 — the name is the wire identity
        a: int
        b: str

    OldRecord = old_reg.type_of(950)

    new_reg = TypeRegistry()
    new_codec = Codec(new_reg)

    @new_reg.register(950)
    @dataclass(frozen=True)
    class Record:  # noqa: F811
        a: int
        b: str
        tag: str = "unset"

    decoded = new_codec.decode(old_codec.encode(OldRecord(a=1, b="x")))
    assert decoded == Record(a=1, b="x", tag="unset")


def test_old_frame_without_default_for_missing_field_rejected():
    old_reg = TypeRegistry()
    old_codec = Codec(old_reg)

    @old_reg.register(951)
    @dataclass(frozen=True)
    class Pair:  # noqa: F811
        a: int

    OldPair = old_reg.type_of(951)

    new_reg = TypeRegistry()
    new_codec = Codec(new_reg)

    @new_reg.register(951)
    @dataclass(frozen=True)
    class Pair:  # noqa: F811
        a: int
        b: int  # no default: an old frame cannot satisfy it

    frame = old_codec.encode(OldPair(a=5))
    with pytest.raises(DecodeError):
        new_codec.decode(frame)


def test_excess_field_count_still_rejected():
    # Growing is only allowed via trailing defaults; a frame claiming MORE
    # fields than the local schema has is still malformed.
    data = bytearray(codec.encode(Point(1, 2)))
    data[3] = 5
    with pytest.raises(DecodeError):
        codec.decode(bytes(data))
