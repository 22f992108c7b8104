"""Property-based tests (hypothesis) on core data structures and invariants."""

import string

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.crypto import digest
from repro.neoscada import DataValue, EventRecord, EventStorage, Severity
from repro.neoscada import storage as neoscada_storage
from repro.neoscada.da.subscription import SubscriptionManager
from repro.neoscada.storage import StorageStation
from repro.sim import Channel, Simulator
from repro.wire import decode, encode

# -- wire codec: decode(encode(x)) == x for all encodable values -------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(allow_nan=False),
    st.text(max_size=50),
    st.binary(max_size=50),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=6),
    )


values = st.recursive(scalars, containers, max_leaves=25)


@given(values)
def test_codec_roundtrip(value):
    assert decode(encode(value)) == value


@given(values)
def test_codec_canonical_equal_values_equal_bytes(a):
    # A structurally identical copy must serialize to identical bytes.
    # (Plain `==` comparison would be too weak a premise: Python says
    # [False] == [0], but the codec rightly preserves the type.)
    import copy

    assert encode(a) == encode(copy.deepcopy(a))


@given(st.binary(max_size=200), st.binary(max_size=200))
def test_digest_injective_on_samples(a, b):
    if a != b:
        assert digest(a) != digest(b)
    else:
        assert digest(a) == digest(b)


# -- simulator: event ordering is by (time, FIFO) ------------------------------


@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=30))
def test_sim_dispatch_order_is_sorted_by_time(delays):
    sim = Simulator()
    fired = []
    for index, delay in enumerate(delays):
        sim.call_later(delay, fired.append, (delay, index))
    sim.run()
    assert fired == sorted(fired, key=lambda pair: pair[0])
    # FIFO among equal times: indexes of equal-delay entries stay sorted.
    for delay in set(delays):
        indexes = [i for d, i in fired if d == delay]
        assert indexes == sorted(indexes)


@given(
    st.lists(st.integers(), min_size=1, max_size=50),
    st.integers(min_value=1, max_value=5),
)
def test_channel_is_fifo_regardless_of_capacity(items, capacity):
    sim = Simulator()
    channel = Channel(sim, capacity=capacity)
    received = []

    def producer():
        for item in items:
            yield channel.put(item)

    def consumer():
        for _ in items:
            value = yield channel.get()
            received.append(value)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert received == items


# -- storage ---------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=1000), max_size=60),
       st.integers(min_value=1, max_value=20))
def test_event_storage_never_exceeds_capacity_and_keeps_newest(ids, capacity):
    # A context, not the fixture: hypothesis runs the body many times.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(neoscada_storage, "EVENT_CAPACITY", capacity)
        storage = EventStorage()
    for i in ids:
        storage.append(
            EventRecord(
                event_id=f"e{i}",
                item_id="x",
                event_type="alarm",
                severity=Severity.ALARM,
                value=i,
                message="",
                timestamp=float(i),
            )
        )
    assert len(storage) <= capacity
    expected = [f"e{i}" for i in ids][-capacity:]
    assert [e.event_id for e in storage.to_tuple()] == expected
    assert storage.total_written == len(ids)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=10),  # inter-arrival gap
            st.integers(min_value=0, max_value=5),  # events submitted
        ),
        max_size=40,
    ),
    st.floats(min_value=0.0001, max_value=0.01),
    st.integers(min_value=1, max_value=16),
)
def test_storage_station_stall_is_nonnegative_and_busy_monotonic(
    submissions, service_time, buffer_size
):
    station = StorageStation(service_time=service_time, buffer_size=buffer_size)
    now = 0.0
    previous_busy = 0.0
    for gap, count in submissions:
        now += gap
        stall = station.submit(now, count)
        assert stall >= 0.0
        assert station.busy_until >= previous_busy
        # A producer that waits out its stall is never stalled again
        # without new submissions.
        if count:
            assert station.submit(now + stall + buffer_size * service_time, 0) == 0.0
        previous_busy = station.busy_until


# -- subscriptions ------------------------------------------------------------------

names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)


@given(
    st.lists(
        st.tuples(st.booleans(), names, st.one_of(names, st.just("*"))),
        max_size=40,
    )
)
def test_subscription_manager_matches_reference_model(operations):
    manager = SubscriptionManager()
    model: set = set()
    for is_subscribe, subscriber, item in operations:
        if is_subscribe:
            manager.subscribe(subscriber, item)
            model.add((subscriber, item))
        else:
            manager.unsubscribe(subscriber, item)
            model.discard((subscriber, item))
    for item in {item for _s, item in model} | {"probe"}:
        expected = sorted(
            {s for s, i in model if i == item} | {s for s, i in model if i == "*"}
        )
        assert manager.subscribers_for(item) == expected


# -- values ---------------------------------------------------------------------------


@given(
    st.one_of(st.integers(), st.floats(allow_nan=False), st.booleans(), st.text(max_size=10)),
    st.floats(min_value=0, max_value=1e6),
)
def test_data_value_roundtrips_and_copies(raw, timestamp):
    value = DataValue(raw, timestamp=timestamp)
    assert decode(encode(value)) == value
    updated = value.with_value(raw)
    assert updated.timestamp == timestamp


# -- quorum arithmetic -----------------------------------------------------------------


_group_sizes = st.integers(min_value=0, max_value=3).flatmap(
    lambda f: st.tuples(st.just(f), st.integers(min_value=3 * f + 1, max_value=3 * f + 4))
)


@given(_group_sizes)
@example((1, 5))  # a reconfigured group: one replica joined, f unchanged
def test_bft_quorums_intersect_in_a_correct_replica(group):
    """Any two consensus quorums share at least f+1 replicas, hence one
    correct; every other threshold is its closed form."""
    from repro.bftsmart import View

    f, n = group
    view = View(1, tuple(f"replica-{i}" for i in range(n)), f)
    quorum = view.consensus_quorum
    assert quorum == -(-(n + f + 1) // 2)  # ceil((n + f + 1) / 2)
    # |Q1 ∩ Q2| >= 2*quorum - n must exceed f ...
    assert 2 * quorum - n >= f + 1
    # ... and a quorum forms while f replicas stay silent.
    assert quorum <= n - f
    assert view.strong_quorum == 2 * f + 1
    assert view.weak_quorum == f + 1
    assert view.live_quorum == n - f
