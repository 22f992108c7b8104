"""Property: ``same_encoding(a, b)`` is ``encode(a) == encode(b)``.

Replicas reuse an output a peer built whenever their own inputs pass
:func:`repro.wire.same_encoding` against the peer's, so the predicate must
agree with the codec exactly: type-strict where the codec is (``0``,
``False``, ``0.0`` and ``-0.0`` are four encodings; ``1``, ``True`` and
``1.0`` three; ``"1"`` and ``b"1"`` two), lenient where the codec is
(``b"1"`` and ``bytearray(b"1")`` are one), dicts in insertion order. The
values are every registered wire type's samples and those confusable
scalars nested in tuples, lists, dicts and frozen dataclasses
(``EventUpdate``, ``WriteValue``, ``DataValue``); the second
value of a pair is the first with each scalar swapped for a confusable
twin (possibly itself), so equal and unequal pairs both come up often.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.neoscada.messages import EventUpdate, WriteValue
from repro.neoscada.values import DataValue
from repro.wire import encode, same_encoding
from tests.test_wire_codec_caching import _REGISTERED, _ids, sample_instance

#: Scalars the codec tells apart although Python may call them equal,
#: grouped by what they could be confused with.
TWINS = (
    (0, False, 0.0, -0.0),
    (1, True, 1.0),
    ("1", b"1", bytearray(b"1")),
    (None, "", b"", ()),
    (float("nan"), 2**70, -(2**70)),
)
SCALARS = tuple(value for group in TWINS for value in group)
#: What a DataValue accepts (a frozen dataclass with a scalar field).
_DATA = (bool, int, float, str, type(None))
SAMPLES = tuple(
    sample_instance(cls, salt) for _tid, cls in _REGISTERED for salt in (0, 1, 7)
)


def _wrap(children):
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.sampled_from(("k", "j", 2)), children, max_size=2),
        children.map(lambda value: EventUpdate(event=value)),
        children.map(
            lambda value: WriteValue(item_id="i", value=value, op_id="o", reply_to="r")
        ),
    )


VALUES = st.recursive(
    st.one_of(st.sampled_from(SCALARS), st.sampled_from(SAMPLES)), _wrap, max_leaves=8
)


def _group_of(value) -> tuple:
    for group in TWINS:
        if any(type(value) is type(twin) and repr(value) == repr(twin) for twin in group):
            return group
    return (value,)


def _twin(value, draw):
    """``value`` with every confusable scalar redrawn from its group."""
    if isinstance(value, list):
        return [_twin(item, draw) for item in value]
    if type(value) is tuple and value:
        return tuple(_twin(item, draw) for item in value)
    if isinstance(value, dict):
        return {key: _twin(item, draw) for key, item in value.items()}
    if type(value) is EventUpdate:
        return EventUpdate(event=_twin(value.event, draw))
    if type(value) is WriteValue:
        return WriteValue(
            item_id="i", value=_twin(value.value, draw), op_id="o", reply_to="r"
        )
    group = _group_of(value)
    if len(group) == 1:
        return copy.deepcopy(value)
    return draw(st.sampled_from(group))


@settings(max_examples=400, deadline=None)
@given(VALUES, st.data())
def test_same_encoding_is_equal_encodings_on_twins(value, data):
    twin = _twin(value, data.draw)
    assert same_encoding(value, twin) == (encode(value) == encode(twin))
    assert same_encoding(twin, value) == (encode(twin) == encode(value))


@settings(max_examples=300, deadline=None)
@given(VALUES, VALUES)
def test_same_encoding_is_equal_encodings_on_any_pair(a, b):
    assert same_encoding(a, b) == (encode(a) == encode(b))


@pytest.mark.parametrize(("tid", "cls"), _REGISTERED, ids=_ids())
def test_every_registered_type_against_its_copies_and_other_samples(tid, cls):
    first, other = sample_instance(cls, 0), sample_instance(cls, 7)
    assert same_encoding(first, copy.deepcopy(first))
    assert same_encoding(first, other) == (encode(first) == encode(other))
    for _tid, foreign in _REGISTERED:
        if foreign is not cls:
            assert not same_encoding(first, sample_instance(foreign, 0))


def test_the_confusable_scalars_pairwise():
    for a in SCALARS:
        for b in SCALARS:
            pairs = [(a, b), ((a,), [b]), ([a], [b]), (EventUpdate(a), EventUpdate(b))]
            if isinstance(a, _DATA) and isinstance(b, _DATA):
                pairs.append((DataValue(a), DataValue(b)))
            for left, right in pairs:
                assert same_encoding(left, right) == (encode(left) == encode(right)), (
                    left,
                    right,
                )
