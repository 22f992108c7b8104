"""Property test: the windowed correlator equals the list it replaced.

:class:`~repro.shard.correlate.AlarmCorrelator` keeps its window in a
deque sorted by timestamp and a per-shard count, so one alarm costs
amortised O(1). :class:`ListCorrelator` below is the implementation it
replaced — rebuild the window list and the shard set on every alarm —
kept as the oracle. Random merged streams, with timestamps on a 0.25 s
grid (so alarms land exactly on the ``>= horizon`` edge), stragglers that
step back in time as the merge's late releases do, non-alarm severities,
correlated alarms fed back in, and alarms inside the suppression span,
must yield the identical synthesized alarms on both.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.neoscada.ae.events import EventRecord, Severity
from repro.shard.correlate import CORRELATED_ALARM, AlarmCorrelator

_ALARM_GRADE = (Severity.WARNING, Severity.ALARM, Severity.ERROR)


class ListCorrelator:
    """The reference: the window as a list filtered on every alarm."""

    def __init__(self, window, min_shards, sink=None):
        self.window = window
        self.min_shards = min_shards
        self.sink = sink
        self._recent = []
        self._counter = 0
        self._suppress_until = float("-inf")
        self.correlated = []

    def observe(self, shard, event):
        if event.event_type == CORRELATED_ALARM:
            return None
        if event.severity not in _ALARM_GRADE:
            return None
        now = event.timestamp
        horizon = now - self.window
        self._recent = [e for e in self._recent if e[0] >= horizon]
        self._recent.append((now, shard, event))
        if now < self._suppress_until:
            return None
        shards = {entry[1] for entry in self._recent}
        if len(shards) < self.min_shards:
            return None
        self._counter += 1
        self._suppress_until = now + self.window
        contributors = sorted({entry[2].item_id for entry in self._recent})
        correlated = EventRecord(
            event_id=f"corr-{self._counter}",
            item_id="*",
            event_type=CORRELATED_ALARM,
            severity=Severity.ALARM,
            value=len(shards),
            message=(
                f"alarms on {len(shards)} shards within {self.window:g}s: "
                + ", ".join(contributors)
            ),
            timestamp=now,
        )
        self.correlated.append(correlated)
        if self.sink is not None:
            self.sink(correlated)
        return correlated


# One step of the merged stream: (time step in grid units, shard, item,
# severity, event type). Negative steps are stragglers.
steps = st.lists(
    st.tuples(
        st.integers(min_value=-3, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.sampled_from(["a", "b", "c", "d"]),
        st.sampled_from(list(Severity)),
        st.sampled_from(["alarm", "alarm", "value-change", CORRELATED_ALARM]),
    ),
    max_size=60,
)

GRID = 0.25


def _run(correlator_class, window, min_shards, stream):
    sunk = []
    correlator = correlator_class(window, min_shards, sink=sunk.append)
    returned = []
    now = 0.0
    for index, (step, shard, item, severity, event_type) in enumerate(stream):
        now += step * GRID
        event = EventRecord(
            event_id=f"e-{index}",
            item_id=item,
            event_type=event_type,
            severity=severity,
            value=index,
            message="",
            timestamp=now,
        )
        returned.append(correlator.observe(shard, event))
    return returned, sunk, correlator.correlated


# An alarm exactly one window after another still correlates with it.
_EDGE = [(0, 0, "a", Severity.ALARM, "alarm"), (4, 1, "b", Severity.ALARM, "alarm")]
# Suppressed until one window after the first correlation, then again.
_SUPPRESSED = _EDGE + [
    (2, 2, "c", Severity.ALARM, "alarm"),
    (2, 3, "d", Severity.ERROR, "alarm"),
    (1, 0, "a", Severity.WARNING, "alarm"),
]


@settings(max_examples=300, deadline=None)
@given(
    window=st.sampled_from([0.5, 1.0, 1.5]),
    min_shards=st.integers(min_value=2, max_value=3),
    stream=steps,
)
@example(window=1.0, min_shards=2, stream=_EDGE)
@example(window=1.0, min_shards=2, stream=_SUPPRESSED)
def test_deque_correlator_matches_the_list_oracle(window, min_shards, stream):
    assert _run(AlarmCorrelator, window, min_shards, stream) == _run(
        ListCorrelator, window, min_shards, stream
    )


def test_the_examples_reach_the_edge_and_the_suppression():
    """The pinned examples do what their comments say, on both."""
    for correlator_class in (AlarmCorrelator, ListCorrelator):
        returned, _sunk, _correlated = _run(correlator_class, 1.0, 2, _EDGE)
        assert returned[0] is None and returned[1] is not None
        returned, _sunk, correlated = _run(correlator_class, 1.0, 2, _SUPPRESSED)
        assert [r is not None for r in returned] == [False, True, False, True, False]
        assert [c.timestamp for c in correlated] == [1.0, 2.0]
