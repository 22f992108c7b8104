"""Binary tag-length-value codec.

The codec handles ``None``, booleans, ints of any size, floats, strings,
bytes, lists, tuples, dicts (string keys not required), registered enums
and registered dataclasses. Encoding is canonical: equal values produce
identical bytes, so content digests of encoded messages are well-defined —
that property is what reply voting and PROPOSE hashing rely on.

Hot-path layout
---------------
``_encode`` dispatches on the *exact* class of the value through a
per-codec table instead of walking an ``isinstance`` chain; dataclass and
enum encoders are built once per class with their type-id prefix bytes
precomputed and the field list pre-resolved from the registry.
:func:`encode_cached` memoizes whole-message encodings of immutable
(frozen-dataclass) messages on the message object itself, so a message
sized by the network, sealed for several receivers or retransmitted is
encoded once. All caching is behaviour-invisible: the memoized
path returns byte-identical output to a fresh encode (see
``tests/test_wire_codec_caching.py``).

:meth:`Codec.same_encoding` answers ``encode(a) == encode(b)`` without
encoding either value: it walks both with the encoders' own dispatch, so
``1``, ``1.0`` and ``True`` differ while ``b"1"`` and ``bytearray(b"1")``
agree. Replicas use it to reuse an output a peer already built from
inputs that encode alike.
"""

from __future__ import annotations

import dataclasses
import enum
import operator
import struct

from repro.perf import PERF
from repro.wire.errors import DecodeError, EncodeError
from repro.wire.registry import GLOBAL_REGISTRY, TypeRegistry

_NONE = 0x00
_TRUE = 0x01
_FALSE = 0x02
_INT = 0x03
_FLOAT = 0x04
_STR = 0x05
_BYTES = 0x06
_LIST = 0x07
_TUPLE = 0x08
_DICT = 0x09
_DATACLASS = 0x0A
_ENUM = 0x0B

_FLOAT_STRUCT = struct.Struct(">d")

#: How deep containers (list, tuple, dict, dataclass, enum — the tags from
#: ``_LIST`` up) may nest. Both directions recurse once per level, so with
#: no bound a 10 KB frame of nested one-element lists ends in a
#: ``RecursionError`` that no ingress site catches. Real messages nest a
#: handful of levels; the bound is the same for encode, so whatever one
#: side can send the other can read.
MAX_DEPTH = 64
_TOO_DEEP = f"containers nested deeper than {MAX_DEPTH}"


def _write_uvarint(out: bytearray, value: int) -> None:
    if value < 0x80:
        out.append(value)
        return
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def uvarint_size(value: int) -> int:
    """Encoded length in bytes of ``value`` as an unsigned varint."""
    if value < 0x80:
        return 1
    return (value.bit_length() + 6) // 7


#: str -> its full TLV chunk (tag + length varint + UTF-8 bytes).
#: Bounded, insert-while-under-limit; protocol strings are low-cardinality.
_STR_ENC_CACHE: dict[str, bytes] = {}
_STR_ENC_CACHE_LIMIT = 4096


def _read_uvarint(data, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise DecodeError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 4096:
            # Arbitrary-size ints are supported, but a wire value that
            # claims more than 4096 bits is an attack, not a number.
            raise DecodeError("varint too long")


#: Exact classes whose equal values always encode alike (``==`` is
#: type-strict enough): not float, whose ``0.0 == -0.0``.
_PLAIN = frozenset((str, int, bytes, bool))


def _same_fields(xs, ys, same, by_class) -> bool:
    """Do ``xs`` and ``ys`` (of one length) encode alike item by item?

    The common item (one object on both sides, an equal str, int, bytes
    or bool of one exact class, or an equal nonzero float, whose bits
    are then equal too) is settled here without a call; two items of one
    class go straight to that class's comparer in ``by_class``.
    """
    for x, y in zip(xs, ys):
        if x is y:
            continue
        cls = x.__class__
        if cls is y.__class__:
            if cls in _PLAIN:
                if x == y:
                    continue
                return False
            if cls is float and x == y and x != 0.0:
                continue
            compare = by_class.get(cls)
            if compare is not None:
                if compare(x, y):
                    continue
                return False
        if not same(x, y):
            return False
    return True


def _same_truth(a, b) -> bool:
    return a == b


_same_int = int.__eq__


def _same_float(a, b) -> bool:
    return _FLOAT_STRUCT.pack(a) == _FLOAT_STRUCT.pack(b)


_same_str = str.__eq__


def _same_bytes(a, b) -> bool:
    # The encoder writes len(value) and then the raw buffer.
    return len(a) == len(b) and bytes(a) == bytes(b)


class Codec:
    """Encoder/decoder bound to a type registry."""

    def __init__(self, registry: TypeRegistry | None = None) -> None:
        self.registry = registry if registry is not None else GLOBAL_REGISTRY
        # Reusable encode buffers (see encode()). Bounded so a one-off
        # giant message cannot pin memory: oversized buffers are dropped.
        self._scratch: list[bytearray] = []
        # Exact-type encoder dispatch. Scalar/container entries are
        # installed eagerly; dataclass and enum encoders are built on
        # first use (and on-the-fly for late registrations).
        self._encoders: dict[type, object] = {
            type(None): self._enc_none,
            bool: self._enc_bool,
            int: self._enc_int,
            float: self._enc_float,
            str: self._enc_str,
            bytes: self._enc_bytes,
            bytearray: self._enc_bytes,
            memoryview: self._enc_bytes,
            list: self._enc_list,
            tuple: self._enc_tuple,
            dict: self._enc_dict,
        }
        # Per-dataclass constructors for decode (built on first use).
        self._constructors: dict[type, object] = {}
        # encoder -> ``compare(a, b)`` for two values that encoder
        # handles (see same_encoding), and the same by exact class for
        # the classes seen so far; built on first use. None has no
        # comparer: two Nones are one object.
        self._comparers: dict[object, object] = {
            self._encoders[bool]: _same_truth,
            self._encoders[int]: _same_int,
            self._encoders[float]: _same_float,
            self._encoders[str]: _same_str,
            self._encoders[bytes]: _same_bytes,
            self._encoders[list]: self._same_items,
            self._encoders[tuple]: self._same_items,
            self._encoders[dict]: self._same_dict,
        }
        self._same_by_class: dict[type, object] = {}

    # -- public API ---------------------------------------------------------

    def encode(self, value) -> bytes:
        # Steady-state encoding reuses a pooled bytearray (already grown
        # to working-set size) instead of allocating and growing a fresh
        # one per message; only the final immutable bytes() is new.
        scratch = self._scratch
        out = scratch.pop() if scratch else bytearray()
        try:
            self._encode(out, value)
            return bytes(out)
        finally:
            if len(scratch) < 8 and len(out) <= 65536:
                del out[:]
                scratch.append(out)

    def decode(self, data):
        """Decode one complete value from ``data``.

        Accepts ``bytes``, ``bytearray`` or ``memoryview``: mutable
        buffers are read through a ``memoryview`` window, so a frame
        sitting inside a larger receive buffer decodes without being
        copied out first (string/bytes payloads are materialized from
        the buffer directly).
        """
        if data.__class__ is not bytes:
            data = memoryview(data)
        value, pos = self._decode(data, 0)
        if pos != len(data):
            raise DecodeError(f"{len(data) - pos} trailing bytes after value")
        return value

    def decode_from(self, data, pos: int = 0) -> tuple:
        """Decode one value starting at ``pos``; returns ``(value, end)``.

        The cursor API for consuming concatenated values from one buffer
        (batch payloads, framed streams) with no per-value slicing:
        ``end`` is the offset one past the value just decoded. Trailing
        bytes are the caller's business, unlike :meth:`decode`.
        """
        if data.__class__ is not bytes:
            data = memoryview(data)
        return self._decode(data, pos)

    def same_encoding(self, a, b) -> bool:
        """``encode(a) == encode(b)``, decided without encoding either.

        Exact for any two values this codec can encode: each side is
        dispatched to the encoder that would write it, two encoders never
        write the same bytes, and one encoder's values are compared the
        way it writes them (a float by its eight bytes, a dict in
        insertion order, a dataclass field by field). A value encode
        rejects has no defined answer.
        """
        if a is b:
            return True
        cls = a.__class__
        if cls is b.__class__:
            compare = self._same_by_class.get(cls)
            if compare is not None:
                return compare(a, b)
        encoders = self._encoders
        encoder = encoders.get(cls) or self._resolve_encoder(a)
        if b.__class__ is not cls and encoder != (
            encoders.get(b.__class__) or self._resolve_encoder(b)
        ):
            return False
        compare = self._comparers.get(encoder)
        if compare is None:
            compare = self._make_comparer(cls, encoder)
        self._same_by_class[cls] = compare
        return compare(a, b)

    def _make_comparer(self, cls: type, encoder):
        """Build (and install) the comparer of a registered class's encoder."""
        same, by_class = self.same_encoding, self._same_by_class
        if issubclass(cls, enum.Enum):

            def compare(a, b) -> bool:
                return same(a.value, b.value)

        else:
            names = tuple(field.name for field in self.registry.fields_of(cls))
            get_fields = operator.attrgetter(*names) if len(names) > 1 else None

            def compare(a, b) -> bool:
                if get_fields is None:
                    return not names or same(
                        getattr(a, names[0]), getattr(b, names[0])
                    )
                return _same_fields(get_fields(a), get_fields(b), same, by_class)

        self._comparers[encoder] = compare
        return compare

    def _same_items(self, a, b) -> bool:
        return len(a) == len(b) and _same_fields(
            a, b, self.same_encoding, self._same_by_class
        )

    def _same_dict(self, a, b) -> bool:
        # Entries are written in insertion order: compare them in it.
        return len(a) == len(b) and self._same_items(
            tuple(a.items()), tuple(b.items())
        )

    # -- encoding -----------------------------------------------------------

    def _encode(self, out: bytearray, value, depth: int = 0) -> None:
        # ``depth`` counts the containers around ``value``; every encoder
        # takes it, the scalar ones ignore it.
        encoder = self._encoders.get(value.__class__)
        if encoder is None:
            encoder = self._resolve_encoder(value)
        encoder(out, value, depth)

    def _resolve_encoder(self, value):
        """Build (and install) the encoder for a class seen for the first time.

        The checks mirror the original ``isinstance`` chain, in the same
        order, so subclasses keep encoding exactly as they always did.
        """
        cls = value.__class__
        if isinstance(value, bool):
            encoder = self._enc_bool
        elif isinstance(value, int):
            encoder = self._enc_int
        elif isinstance(value, float):
            encoder = self._enc_float
        elif isinstance(value, str):
            encoder = self._enc_str
        elif isinstance(value, (bytes, bytearray, memoryview)):
            encoder = self._enc_bytes
        elif isinstance(value, list):
            encoder = self._enc_list
        elif isinstance(value, tuple):
            encoder = self._enc_tuple
        elif isinstance(value, dict):
            encoder = self._enc_dict
        elif isinstance(value, enum.Enum):
            encoder = self._make_enum_encoder(cls)
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            encoder = self._make_dataclass_encoder(cls)
        else:
            raise EncodeError(f"cannot encode {cls.__name__}: {value!r}")
        self._encoders[cls] = encoder
        return encoder

    # Scalar/container encoders -------------------------------------------

    @staticmethod
    def _enc_none(out: bytearray, value, depth: int) -> None:
        out.append(_NONE)

    @staticmethod
    def _enc_bool(out: bytearray, value, depth: int) -> None:
        out.append(_TRUE if value else _FALSE)

    @staticmethod
    def _enc_int(out: bytearray, value, depth: int) -> None:
        out.append(_INT)
        # Sign-and-magnitude varint: supports arbitrary-size ints. The
        # common small non-negative case is a single inlined byte.
        if 0 <= value < 0x40:
            out.append(value << 1)
        elif value < 0:
            _write_uvarint(out, ((-value) << 1) | 1)
        else:
            _write_uvarint(out, value << 1)

    @staticmethod
    def _enc_float(out: bytearray, value, depth: int) -> None:
        out.append(_FLOAT)
        out += _FLOAT_STRUCT.pack(value)

    @staticmethod
    def _enc_str(out: bytearray, value, depth: int) -> None:
        # Protocol strings (addresses, client ids) repeat massively;
        # memoize the full TLV chunk per distinct string, content-keyed
        # so the bytes are those of a fresh encode.
        try:
            out += _STR_ENC_CACHE[value]
            return
        except KeyError:
            pass
        encoded = value.encode("utf-8")
        piece = bytearray((_STR,))
        _write_uvarint(piece, len(encoded))
        piece += encoded
        chunk = bytes(piece)
        if len(_STR_ENC_CACHE) < _STR_ENC_CACHE_LIMIT:
            _STR_ENC_CACHE[value] = chunk
        out += chunk

    @staticmethod
    def _enc_bytes(out: bytearray, value, depth: int) -> None:
        out.append(_BYTES)
        length = len(value)
        if length < 0x80:
            out.append(length)
        else:
            _write_uvarint(out, length)
        out += value

    def _enc_list(self, out: bytearray, value, depth: int) -> None:
        if depth >= MAX_DEPTH:
            raise EncodeError(_TOO_DEEP)
        depth += 1
        out.append(_LIST)
        _write_uvarint(out, len(value))
        encode_item = self._encode
        for item in value:
            encode_item(out, item, depth)

    def _enc_tuple(self, out: bytearray, value, depth: int) -> None:
        if depth >= MAX_DEPTH:
            raise EncodeError(_TOO_DEEP)
        depth += 1
        out.append(_TUPLE)
        _write_uvarint(out, len(value))
        encode_item = self._encode
        for item in value:
            encode_item(out, item, depth)

    def _enc_dict(self, out: bytearray, value, depth: int) -> None:
        if depth >= MAX_DEPTH:
            raise EncodeError(_TOO_DEEP)
        depth += 1
        out.append(_DICT)
        _write_uvarint(out, len(value))
        encode_item = self._encode
        for key, item in value.items():
            encode_item(out, key, depth)
            encode_item(out, item, depth)

    # Registered-type encoders --------------------------------------------

    def _make_enum_encoder(self, cls: type):
        prefix = bytearray([_ENUM])
        _write_uvarint(prefix, self.registry.id_of(cls))
        prefix = bytes(prefix)
        encode_inner = self._encode

        def enc(out: bytearray, value, depth: int) -> None:
            if depth >= MAX_DEPTH:
                raise EncodeError(_TOO_DEEP)
            out += prefix
            encode_inner(out, value.value, depth + 1)

        return enc

    def _make_dataclass_encoder(self, cls: type):
        prefix = bytearray([_DATACLASS])
        _write_uvarint(prefix, self.registry.id_of(cls))
        fields = self.registry.fields_of(cls)
        _write_uvarint(prefix, len(fields))
        prefix = bytes(prefix)
        names = tuple(field.name for field in fields)
        # attrgetter fetches every field in one C call, and the per-field
        # encoder dispatch is inlined (same dict the _encode wrapper uses,
        # so the encoding is identical — this just drops a Python frame
        # per field on the hottest loop in the codec).
        get_fields = (
            operator.attrgetter(*names) if len(names) > 1 else None
        )
        encoders = self._encoders
        resolve = self._resolve_encoder
        encode_inner = self._encode

        if get_fields is None:

            def enc(out: bytearray, value, depth: int) -> None:
                if depth >= MAX_DEPTH:
                    raise EncodeError(_TOO_DEEP)
                out += prefix
                if names:
                    encode_inner(out, getattr(value, names[0]), depth + 1)

            return enc

        def enc(out: bytearray, value, depth: int) -> None:
            if depth >= MAX_DEPTH:
                raise EncodeError(_TOO_DEEP)
            depth += 1
            out += prefix
            for item in get_fields(value):
                encoder = encoders.get(item.__class__)
                if encoder is None:
                    encoder = resolve(item)
                encoder(out, item, depth)

        return enc

    # -- decoding -----------------------------------------------------------

    def _decode(self, data, pos: int, depth: int = 0):
        # The branch order is by decoded-value frequency in protocol
        # traffic (strings/ints/bytes inside dataclass messages), and the
        # common one-byte varint is inlined — this function runs several
        # times per field of every message a simulation delivers.
        # ``data`` is bytes or a memoryview; every read below (indexing,
        # str()/bytes() construction, unpack_from) is buffer-polymorphic,
        # so a memoryview input is never copied into an intermediate
        # bytes object on the way to the decoded values.
        n = len(data)
        if pos >= n:
            raise DecodeError("truncated input")
        tag = data[pos]
        pos += 1
        if tag == _STR:
            if pos >= n:
                raise DecodeError("truncated varint")
            length = data[pos]
            if length < 0x80:
                pos += 1
            else:
                length, pos = _read_uvarint(data, pos)
            if pos + length > n:
                raise DecodeError("truncated string")
            try:
                # str(buffer, "utf-8") decodes straight from the buffer —
                # no intermediate bytes slice.
                return str(data[pos : pos + length], "utf-8"), pos + length
            except UnicodeDecodeError as exc:
                raise DecodeError(f"invalid utf-8: {exc}")
        if tag == _INT:
            if pos >= n:
                raise DecodeError("truncated varint")
            raw = data[pos]
            if raw < 0x80:
                pos += 1
            else:
                raw, pos = _read_uvarint(data, pos)
            magnitude = raw >> 1
            return (-magnitude if raw & 1 else magnitude), pos
        if tag == _BYTES:
            if pos >= n:
                raise DecodeError("truncated varint")
            length = data[pos]
            if length < 0x80:
                pos += 1
            else:
                length, pos = _read_uvarint(data, pos)
            if pos + length > n:
                raise DecodeError("truncated bytes")
            # bytes(x) is a no-op for a bytes slice and materializes a
            # memoryview slice; decoded values are always real bytes.
            return bytes(data[pos : pos + length]), pos + length
        if tag >= _LIST:
            # A container: its children sit one level deeper.
            if depth >= MAX_DEPTH:
                raise DecodeError(_TOO_DEEP)
            depth += 1
        if tag == _DATACLASS:
            type_id, pos = _read_uvarint(data, pos)
            cls, fields = self.registry.dataclass_of(type_id)
            count, pos = _read_uvarint(data, pos)
            if count != len(fields):
                if count > len(fields):
                    raise DecodeError(
                        f"{cls.__name__}: expected {len(fields)} fields, got {count}"
                    )
                # Backward compatibility: a frame written before trailing
                # default fields were added (e.g. ClientRequest.trace_id)
                # decodes by filling the missing tail from the defaults.
                tail = self._default_tail(cls, count)
            else:
                tail = None
            decode_inner = self._decode
            values = []
            append = values.append
            for _ in range(count):
                value, pos = decode_inner(data, pos, depth)
                append(value)
            if tail is not None:
                for kind, default in tail:
                    append(default() if kind else default)
            construct = self._constructors.get(cls)
            if construct is None:
                construct = self._make_constructor(cls)
            try:
                return construct(values), pos
            except (TypeError, ValueError) as exc:
                raise DecodeError(f"cannot construct {cls.__name__}: {exc}")
        if tag == _NONE:
            return None, pos
        if tag == _TRUE:
            return True, pos
        if tag == _FALSE:
            return False, pos
        if tag == _FLOAT:
            if pos + 8 > n:
                raise DecodeError("truncated float")
            return _FLOAT_STRUCT.unpack_from(data, pos)[0], pos + 8
        if tag in (_LIST, _TUPLE):
            count, pos = _read_uvarint(data, pos)
            items = []
            for _ in range(count):
                item, pos = self._decode(data, pos, depth)
                items.append(item)
            return (tuple(items) if tag == _TUPLE else items), pos
        if tag == _DICT:
            count, pos = _read_uvarint(data, pos)
            result = {}
            for _ in range(count):
                key, pos = self._decode(data, pos, depth)
                value, pos = self._decode(data, pos, depth)
                try:
                    result[key] = value
                except TypeError as exc:  # a list, dict or one inside a key
                    raise DecodeError(f"unhashable dict key: {exc}")
            return result, pos
        if tag == _ENUM:
            type_id, pos = _read_uvarint(data, pos)
            cls = self.registry.enum_of(type_id)
            raw, pos = self._decode(data, pos, depth)
            try:
                return cls(raw), pos
            except (TypeError, ValueError) as exc:
                raise DecodeError(f"invalid enum value for {cls.__name__}: {exc}")
        raise DecodeError(f"unknown tag byte {tag:#04x}")

    def _default_tail(self, cls: type, count: int) -> list:
        """Defaults for the trailing fields a short frame omitted.

        Returns ``[(is_factory, default_or_factory), ...]`` for the
        fields past ``count``; raises :class:`DecodeError` when any of
        them has no default (the frame is then genuinely malformed).
        """
        fields = self.registry.fields_of(cls)
        tail = []
        for field in fields[count:]:
            if field.default is not dataclasses.MISSING:
                tail.append((False, field.default))
            elif field.default_factory is not dataclasses.MISSING:
                tail.append((True, field.default_factory))
            else:
                raise DecodeError(
                    f"{cls.__name__}: expected {len(fields)} fields, got "
                    f"{count}, and field {field.name!r} has no default"
                )
        return tail

    def _make_constructor(self, cls: type):
        """Build (and install) the decode-side constructor for ``cls``.

        Plain generated-``__init__`` dataclasses without ``__post_init__``
        or ``__slots__`` are built via ``__new__`` + a direct ``__dict__``
        fill, skipping the frozen-dataclass ``object.__setattr__`` walk.
        Anything fancier falls back to calling the class, preserving the
        original semantics (including ``__post_init__`` validation).
        """
        fields = self.registry.fields_of(cls)
        params = getattr(cls, "__dataclass_params__", None)
        plain = (
            params is not None
            and params.init
            and "__slots__" not in cls.__dict__
            and not hasattr(cls, "__post_init__")
            and all(field.init for field in fields)
        )
        if plain:
            names = tuple(field.name for field in fields)
            new = cls.__new__

            def construct(values, _cls=cls, _names=names, _new=new):
                obj = _new(_cls)
                obj.__dict__.update(zip(_names, values))
                return obj

        else:

            def construct(values, _cls=cls):
                return _cls(*values)

        self._constructors[cls] = construct
        return construct


#: Codec over the global registry; what the protocol stacks use.
DEFAULT_CODEC = Codec()


def encode(value) -> bytes:
    """Encode ``value`` with the default (global-registry) codec."""
    return DEFAULT_CODEC.encode(value)


def decode(data):
    """Decode ``data`` with the default (global-registry) codec."""
    return DEFAULT_CODEC.decode(data)


def same_encoding(a, b) -> bool:
    """``encode(a) == encode(b)`` (default codec), without encoding."""
    return DEFAULT_CODEC.same_encoding(a, b)


# -- memoized whole-message encoding ----------------------------------------


#: Attribute under which a frozen message memoizes its own encoding. The
#: memo lives exactly as long as the object, so the paths that genuinely
#: re-encode one object — client retransmissions, duplicate-request reply
#: resends, leader-change re-proposals — always hit, with no shared cache
#: to churn or evict. (A global id-keyed LRU here was measurably dead: the
#: per-send traffic between two encodes of the same long-lived object
#: evicted it every time — 0 hits against ~100k misses per benchmark run.)
_MEMO_ATTR = "_encoded_memo"
_ENCODE_STATS = PERF.stats["codec_encode"]

#: Per-class eligibility for memoization (only frozen dataclasses, whose
#: identity pins their content).
_FROZEN_CLASS: dict[type, bool] = {}


def _is_frozen_dataclass(cls: type) -> bool:
    frozen = _FROZEN_CLASS.get(cls)
    if frozen is None:
        params = getattr(cls, "__dataclass_params__", None)
        frozen = bool(params is not None and params.frozen)
        _FROZEN_CLASS[cls] = frozen
    return frozen


def encode_cached(message) -> bytes:
    """Encode ``message`` (default codec), memoizing immutable messages.

    Only frozen-dataclass instances are memoized — their immutability pins
    their content — and the memo is stored on the message object itself,
    so the payload is byte-identical to a fresh encode by construction and
    the memo's lifetime is exactly the object's. Instances without a
    ``__dict__`` (``__slots__`` classes) are encoded afresh every time.
    """
    if not _is_frozen_dataclass(message.__class__):
        return DEFAULT_CODEC.encode(message)
    memo = getattr(message, "__dict__", None)
    if memo is None:
        _ENCODE_STATS.misses += 1
        return DEFAULT_CODEC.encode(message)
    payload = memo.get(_MEMO_ATTR)
    if payload is not None:
        _ENCODE_STATS.hits += 1
        return payload
    _ENCODE_STATS.misses += 1
    # Stored straight into __dict__ (a frozen dataclass blocks setattr):
    # no wire field is touched, and dataclass __eq__/__repr__/fields
    # ignore it.
    payload = memo[_MEMO_ATTR] = DEFAULT_CODEC.encode(message)
    return payload


@PERF.on_clear
def clear_encode_cache() -> None:
    # Encodings are memoized on the message objects themselves now, so
    # there is no global encode table left to drop — clearing for a cold
    # measurement is a per-object affair handled by using fresh messages.
    _STR_ENC_CACHE.clear()
