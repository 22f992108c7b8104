"""Property tests for the codec caching layer.

The hot-path performance pass memoizes encodings, shares string chunks
and seeds decode results — all of which is only sound if the codec is
*canonical*: equal values must produce identical bytes no matter which
code path (fresh codec, memoized) produced them, and the bytes the
un-cached codec produced before it was deleted (``tests/golden``). These
tests sweep every type registered in :data:`GLOBAL_REGISTRY` with
generated sample instances and assert exactly that.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import hashlib
import types
import typing

import pytest

# Import every module that registers wire types so the sweep below sees
# the full registry, not just whatever earlier tests happened to import.
import repro.bftsmart.messages  # noqa: F401
import repro.bftsmart.view  # noqa: F401
import repro.neoscada.ae.events  # noqa: F401
import repro.neoscada.messages  # noqa: F401
import repro.neoscada.protocols.iec104  # noqa: F401
import repro.neoscada.protocols.modbus  # noqa: F401
import repro.neoscada.values  # noqa: F401
import repro.shard.messages  # noqa: F401
from repro.bftsmart.messages import ClientRequest
from repro.bftsmart.view import View
from repro.perf import PERF, clear_hot_path_caches
from repro.wire import GLOBAL_REGISTRY, Codec, decode, encode, encode_cached
from tests.golden import GOLDEN

#: Types whose ``__post_init__`` rejects naive generated field values.
_OVERRIDES = {
    View: lambda salt: View(
        view_id=salt, addresses=(f"r0-{salt}", "r1", "r2", "r3"), f=1
    ),
}


def _sample_value(annotation, salt: int):
    """A deterministic sample value for one resolved field annotation."""
    origin = typing.get_origin(annotation)
    if origin in (typing.Union, types.UnionType):
        for arg in typing.get_args(annotation):
            if arg is not type(None):
                return _sample_value(arg, salt)
        return None
    if annotation is str:
        return f"s{salt}"
    if annotation is int:
        return 41 + salt
    if annotation is float:
        return 0.5 + salt
    if annotation is bool:
        return salt % 2 == 0
    if annotation is bytes:
        return bytes([salt % 256]) * 3
    if annotation is tuple or origin is tuple:
        return (f"t{salt}", salt)
    if annotation is dict or origin is dict:
        return {f"k{salt}": bytes([salt % 256]) * 16}
    if isinstance(annotation, type) and issubclass(annotation, enum.Enum):
        members = list(annotation)
        return members[salt % len(members)]
    if isinstance(annotation, type) and dataclasses.is_dataclass(annotation):
        return sample_instance(annotation, salt)
    # ``object``-annotated fields hold scalars on the wire.
    return salt


def sample_instance(cls: type, salt: int = 0):
    """Build a deterministic sample instance of a registered wire type."""
    override = _OVERRIDES.get(cls)
    if override is not None:
        return override(salt)
    if issubclass(cls, enum.Enum):
        members = list(cls)
        return members[salt % len(members)]
    hints = typing.get_type_hints(cls)
    kwargs = {
        field.name: _sample_value(hints.get(field.name, object), salt + i)
        for i, field in enumerate(dataclasses.fields(cls))
    }
    return cls(**kwargs)


_REGISTERED = sorted(GLOBAL_REGISTRY._by_id.items())


def _ids():
    return [f"{tid}-{cls.__name__}" for tid, cls in _REGISTERED]


def test_registry_sweep_is_nontrivial():
    # Guard against silently sweeping an empty registry if imports move.
    assert len(_REGISTERED) >= 40


@pytest.mark.parametrize(("tid", "cls"), _REGISTERED, ids=_ids())
def test_encode_is_canonical_across_copies(tid, cls):
    """``encode(x) == encode(deepcopy(x))`` — equal values, equal bytes."""
    for salt in (0, 7):
        original = sample_instance(cls, salt)
        clone = copy.deepcopy(original)
        assert encode(original) == encode(clone)


@pytest.mark.parametrize(("tid", "cls"), _REGISTERED, ids=_ids())
def test_encode_decode_round_trip(tid, cls):
    original = sample_instance(cls, 3)
    decoded = decode(encode(original))
    assert type(decoded) is cls
    assert decoded == original


@pytest.mark.parametrize(("tid", "cls"), _REGISTERED, ids=_ids())
def test_memoized_encode_matches_fresh_codec(tid, cls):
    """The memoized path must be byte-identical to an uncached codec.

    Three encodings are compared: ``encode_cached`` (memo + string-chunk
    cache + varint fast paths), a brand-new :class:`Codec` instance (no
    shared state), and the bytes the legacy path produced, by digest.
    """
    original = sample_instance(cls, 5)
    clear_hot_path_caches()
    cached = encode_cached(original)
    fresh = Codec(GLOBAL_REGISTRY).encode(original)
    assert cached == fresh
    legacy = GOLDEN["encodings"][f"{tid}-{cls.__name__}"]
    assert hashlib.sha256(cached).hexdigest() == legacy


def test_encode_cached_memo_returns_same_object():
    clear_hot_path_caches()
    request = sample_instance(ClientRequest, 1)
    stats = PERF.stats["codec_encode"]
    hits_before = stats.hits
    first = encode_cached(request)
    second = encode_cached(request)
    assert second is first  # the memoized bytes object itself
    assert stats.hits == hits_before + 1
    # An equal but distinct object is *not* a memo hit (identity
    # keyed), yet still encodes to identical bytes.
    twin = copy.deepcopy(request)
    assert encode_cached(twin) == first


def test_string_chunk_cache_shares_no_state_across_values():
    """Repeated strings hit the chunk cache; bytes must stay per-value."""
    clear_hot_path_caches()
    a = sample_instance(ClientRequest, 1)
    b = dataclasses.replace(a, sequence=a.sequence + 1)
    warm_a, warm_b = encode(a), encode(b)  # warm the chunk cache
    assert (encode(a), encode(b)) == (warm_a, warm_b)
    clear_hot_path_caches()  # cold chunk cache, fresh codec: same bytes
    cold = Codec(GLOBAL_REGISTRY)
    assert (cold.encode(a), cold.encode(b)) == (warm_a, warm_b)
    assert warm_a != warm_b
