"""Equivalence tests for the dict-fill ``__init__`` of frozen dataclasses.

``repro.wire.registry.dict_fill_init`` replaces the ``__init__`` that
``dataclasses`` generates for a plain frozen dataclass (one
``object.__setattr__`` per field) with a ``__dict__`` fill. It is
installed on every registered wire dataclass at ``wire_type`` time and on
``MessageContext`` / ``Signature`` by decorator. The stock ``__init__``
stays reachable as ``cls.__init__.__wrapped__``; these tests build every
class through both and require indistinguishable instances.
"""

from __future__ import annotations

import dataclasses
from dataclasses import FrozenInstanceError, InitVar, dataclass, field

import pytest

import repro.shard.messages  # noqa: F401  (registers wire types 82/83)
from repro.bftsmart.config import GroupConfig
from repro.bftsmart.messages import ClientRequest, Sealed
from repro.bftsmart.service import MessageContext
from repro.bftsmart.view import View
from repro.crypto import Signature
from repro.wire import GLOBAL_REGISTRY, decode, encode, encode_cached
from repro.wire.registry import TypeRegistry, dict_fill_init
from tests.test_wire_codec_caching import sample_instance

_SAMPLES = {
    MessageContext: lambda salt: MessageContext(
        cid=salt, order=1, timestamp=0.5,
        client_id="c", sequence=salt, replica="r0",
    ),
    Signature: lambda salt: Signature("signer", bytes([salt]) * 32),
}

_CLASSES = [
    cls
    for _, cls in sorted(GLOBAL_REGISTRY._by_id.items())
    if dataclasses.is_dataclass(cls)
] + [MessageContext, Signature]


def _field_values(cls: type, salt: int = 3) -> list:
    """Valid constructor arguments for ``cls``, in field order."""
    make = _SAMPLES.get(cls)
    instance = make(salt) if make else sample_instance(cls, salt)
    return [getattr(instance, f.name) for f in dataclasses.fields(cls)]


def _stock(cls: type, *args, **kwargs):
    """An instance built by the ``dataclasses``-generated ``__init__``."""
    instance = cls.__new__(cls)
    cls.__init__.__wrapped__(instance, *args, **kwargs)
    return instance


def _outcome(fn, *args):
    try:
        return fn(*args)
    except TypeError as exc:  # e.g. hash() of a message holding a dict
        return type(exc)


def _assert_same(fast, stock) -> None:
    assert type(fast) is type(stock)
    assert fast == stock
    assert repr(fast) == repr(stock)
    assert _outcome(hash, fast) == _outcome(hash, stock)
    assert dataclasses.asdict(fast) == dataclasses.asdict(stock)
    # Same attributes in the same order: nothing extra, nothing missing.
    assert list(vars(fast).items()) == list(vars(stock).items())


def test_sweep_covers_the_registry():
    assert len(_CLASSES) >= 45


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_every_plain_frozen_class_got_the_fast_init(cls):
    # All of today's wire dataclasses are plain and frozen; if one stops
    # qualifying the fallback is silent, so it must be noticed here.
    assert "__wrapped__" in vars(cls.__init__)
    stock = cls.__init__.__wrapped__
    assert stock.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__qualname__ == stock.__qualname__


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_positional_keyword_and_defaulted_construction(cls):
    fields = dataclasses.fields(cls)
    values = _field_values(cls)
    names = [f.name for f in fields]
    _assert_same(cls(*values), _stock(cls, *values))
    by_name = dict(zip(names, values))
    _assert_same(cls(**by_name), _stock(cls, **by_name))
    # Half positional, half keyword.
    half = len(values) // 2
    rest = dict(zip(names[half:], values[half:]))
    _assert_same(cls(*values[:half], **rest), _stock(cls, *values[:half], **rest))
    # Every trailing default left out.
    required = [
        v for f, v in zip(fields, values) if f.default is dataclasses.MISSING
    ]
    if len(required) < len(values):
        fast = cls(*required)
        _assert_same(fast, _stock(cls, *required))
        for f in fields[len(required):]:
            assert getattr(fast, f.name) is f.default


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_instances_stay_frozen(cls):
    instance = cls(*_field_values(cls))
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(instance, name, getattr(instance, name))
    with pytest.raises(FrozenInstanceError):
        instance.brand_new_attribute = 1
    with pytest.raises(FrozenInstanceError):
        delattr(instance, name)


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_argument_errors_are_type_errors(cls):
    values = _field_values(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    required = sum(
        f.default is dataclasses.MISSING for f in dataclasses.fields(cls)
    )
    if required:  # ShardExport / ShardImport default every field
        with pytest.raises(TypeError):
            cls(*values[: required - 1])  # one required argument missing
    with pytest.raises(TypeError):
        cls(*values, None)  # one too many
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})  # duplicate
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)  # unknown


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_replace_goes_through_the_fast_init(cls):
    values = _field_values(cls)
    other = _field_values(cls, salt=9)
    name = dataclasses.fields(cls)[-1].name
    replaced = dataclasses.replace(cls(*values), **{name: other[-1]})
    _assert_same(replaced, _stock(cls, *values[:-1], other[-1]))


def test_wire_round_trip_and_encode_memo_survive():
    request = ClientRequest("c", 7, b"op", "c", mac=b"m" * 32)
    encoded = encode_cached(request)
    assert encode_cached(request) is encoded  # memo sits in __dict__
    assert encoded == encode(_stock(ClientRequest, "c", 7, b"op", "c", mac=b"m" * 32))
    assert decode(encoded) == request
    # The memo is not a field: equality, repr and replace() ignore it.
    assert request == ClientRequest("c", 7, b"op", "c", mac=b"m" * 32)
    assert "_encoded_memo" not in repr(request)
    assert "_encoded_memo" not in vars(dataclasses.replace(request, sequence=8))
    sealed = Sealed("s", b"payload", {"r": b"t" * 16})
    assert decode(encode(sealed)) == sealed


def test_post_init_still_runs():
    with pytest.raises(ValueError):
        Signature("signer", b"12345")
    with pytest.raises(ValueError):
        View(view_id=0, addresses=("r0", "r1", "r2"), f=1)  # n < 3f + 1

    @dict_fill_init
    @dataclass(frozen=True)
    class FastGroupConfig(GroupConfig):
        pass

    # A __post_init__ that normalises a field (the empty address tuple
    # becomes the canonical names) still runs behind the fast init.
    assert "__wrapped__" in vars(FastGroupConfig.__init__)
    group = FastGroupConfig(7, 2)
    assert group.addresses == tuple(f"replica-{i}" for i in range(7))
    assert group == _stock(FastGroupConfig, 7, 2)
    with pytest.raises(ValueError):
        FastGroupConfig(3, 1)


def _declined(cls: type) -> bool:
    before = cls.__dict__.get("__init__")
    assert dict_fill_init(cls) is cls
    return cls.__dict__.get("__init__") is before


def test_fancy_dataclasses_keep_the_stock_init():
    @dataclass(frozen=True)
    class Slotted:
        __slots__ = ("a",)
        a: int

    @dataclass(frozen=True)
    class SlottedBase:
        __slots__ = ("a",)
        a: int

    @dataclass(frozen=True)
    class InheritsSlot(SlottedBase):
        b: int = 0

    @dataclass(frozen=True)
    class WithFactory:
        a: int
        items: list = field(default_factory=list)

    @dataclass(frozen=True)
    class WithInitVar:
        a: int
        scale: InitVar[int] = 1

        def __post_init__(self, scale):
            object.__setattr__(self, "a", self.a * scale)

    @dataclass(frozen=True)
    class WithDerived:
        a: int
        b: int = field(init=False, default=5)

    @dataclass(frozen=True)
    class KeywordOnly:
        a: int
        b: int = field(kw_only=True, default=0)

    @dataclass(frozen=True)
    class FieldNamedSelf:  # dataclasses renames the receiver parameter
        self: int

    @dataclass
    class Mutable:
        a: int

    @dataclass(frozen=True, init=False)
    class OwnInit:
        a: int

        def __init__(self) -> None:
            object.__setattr__(self, "a", 1)

    class NotADataclass:
        def __init__(self) -> None:
            self.a = 1

    for cls in (
        Slotted, InheritsSlot, WithFactory, WithInitVar, WithDerived,
        KeywordOnly, FieldNamedSelf, Mutable, OwnInit, NotADataclass,
    ):
        assert _declined(cls), cls.__name__
    assert WithInitVar(2, scale=3).a == 6
    assert WithFactory(1).items == [] and WithFactory(1).items is not WithFactory(1).items
    assert InheritsSlot(1, 2).a == 1
    assert FieldNamedSelf(self=4).self == 4


def test_registering_installs_it_and_enums_are_left_alone():
    import enum

    registry = TypeRegistry()

    @registry.register(1)
    @dataclass(frozen=True)
    class Ping:
        nonce: int
        note: str = ""

    @registry.register(2)
    class Colour(enum.Enum):
        RED = 1

    assert "__wrapped__" in vars(Ping.__init__)
    assert Ping(5) == _stock(Ping, 5) and vars(Ping(5)) == {"nonce": 5, "note": ""}
    assert Colour(1) is Colour.RED
