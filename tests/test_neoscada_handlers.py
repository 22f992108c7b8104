"""Unit tests for the handler framework and the four default handlers."""

import pytest

from repro.neoscada import (
    Block,
    DataValue,
    HandlerChain,
    HandlerContext,
    Monitor,
    Override,
    Quality,
    Scale,
    Severity,
)


def make_ctx(is_write=False, operator="", now=10.0):
    counter = {"n": 0}

    def event_ids():
        counter["n"] += 1
        return f"e{counter['n']}"

    return HandlerContext(
        item_id="item-1",
        now=now,
        event_id_source=event_ids,
        is_write=is_write,
        operator=operator,
    )


# -- Scale ---------------------------------------------------------------


def test_scale_applies_factor_and_offset():
    result = Scale(factor=0.1, offset=-5.0).process(DataValue(2300), make_ctx())
    assert result.value.value == pytest.approx(225.0)
    assert not result.events


def test_scale_passes_non_numeric_through():
    handler = Scale(factor=2.0)
    for raw in ("text", None, True):
        assert handler.process(DataValue(raw), make_ctx()).value.value == raw


def test_scale_skips_bad_quality():
    value = DataValue(100, Quality.BAD, 0.0)
    assert Scale(factor=2.0).process(value, make_ctx()).value is value


# -- Override --------------------------------------------------------------


def test_override_inactive_is_identity():
    value = DataValue(7)
    assert Override().process(value, make_ctx()).value is value


def test_override_active_replaces_value_and_raises_event():
    handler = Override()
    handler.activate(99)
    result = handler.process(DataValue(7), make_ctx())
    assert result.value.value == 99
    assert result.value.quality is Quality.BLOCKED
    assert [e.event_type for e in result.events] == ["override"]
    handler.deactivate()
    assert handler.process(DataValue(7), make_ctx()).value.value == 7


def test_override_state_roundtrip():
    handler = Override()
    handler.activate(5)
    restored = Override()
    restored.restore(handler.state())
    assert restored.active and restored.value == 5


# -- Monitor -----------------------------------------------------------------


def test_monitor_requires_a_bound():
    with pytest.raises(ValueError):
        Monitor()


def test_monitor_raises_alarm_above_high():
    result = Monitor(high=100.0).process(DataValue(150), make_ctx())
    assert len(result.events) == 1
    event = result.events[0]
    assert event.event_type == "alarm"
    assert event.severity is Severity.ALARM
    assert event.timestamp == 10.0
    assert event.event_id == "e1"


def test_monitor_raises_alarm_below_low():
    result = Monitor(low=10.0).process(DataValue(5), make_ctx())
    assert result.events[0].event_type == "alarm"
    assert "below low limit" in result.events[0].message


def test_monitor_silent_in_bounds():
    handler = Monitor(high=100.0, low=0.0)
    assert not handler.process(DataValue(50), make_ctx()).events


def test_monitor_level_triggered_alarms_every_update():
    handler = Monitor(high=100.0)
    for _ in range(3):
        assert handler.process(DataValue(150), make_ctx()).events


def test_monitor_edge_triggered_alarms_once():
    handler = Monitor(high=100.0, edge_triggered=True)
    first = handler.process(DataValue(150), make_ctx())
    second = handler.process(DataValue(160), make_ctx())
    cleared = handler.process(DataValue(50), make_ctx())
    assert len(first.events) == 1
    assert not second.events
    assert cleared.events[0].event_type == "alarm-cleared"


def test_monitor_ignores_non_numeric_and_bad_quality():
    handler = Monitor(high=1.0)
    assert not handler.process(DataValue("x"), make_ctx()).events
    assert not handler.process(DataValue(5, Quality.BAD, 0.0), make_ctx()).events


# -- Block ---------------------------------------------------------------------


def test_block_ignores_reads():
    result = Block(blocked=True).process(DataValue(1), make_ctx(is_write=False))
    assert not result.blocked


def test_block_denies_all_when_locked():
    result = Block(blocked=True).process(DataValue(1), make_ctx(is_write=True))
    assert result.blocked
    assert "maintenance" in result.block_reason
    assert result.events[0].event_type == "write-denied"


def test_block_operator_allowlist():
    handler = Block(allowed_operators=("alice",))
    ok = handler.process(DataValue(1), make_ctx(is_write=True, operator="alice"))
    bad = handler.process(DataValue(1), make_ctx(is_write=True, operator="bob"))
    assert not ok.blocked
    assert bad.blocked and "not authorized" in bad.block_reason


def test_block_predicate_policy():
    def in_range(value, ctx):
        ok = 0 <= value.value <= 10
        return ok, "" if ok else f"{value.value} outside interlock range"

    handler = Block(predicate=in_range)
    assert not handler.process(DataValue(5), make_ctx(is_write=True)).blocked
    denied = handler.process(DataValue(50), make_ctx(is_write=True))
    assert denied.blocked and "interlock" in denied.block_reason


# -- HandlerChain ------------------------------------------------------------------


def test_chain_feeds_values_through_in_order():
    chain = HandlerChain([Scale(factor=0.1), Monitor(high=100.0)])
    result = chain.process(DataValue(2000), make_ctx())
    assert result.value.value == pytest.approx(200.0)
    assert len(result.events) == 1  # scaled value exceeds the threshold


def test_chain_collects_events_from_all_handlers():
    override = Override()
    override.activate(500)
    chain = HandlerChain([override, Monitor(high=100.0)])
    result = chain.process(DataValue(1), make_ctx())
    # Override event + alarm on the overridden value... but the overridden
    # value carries BLOCKED quality, so Monitor skips it.
    assert [e.event_type for e in result.events] == ["override"]


def test_chain_blocking_short_circuits():
    sentinel = Monitor(high=0.0)  # would alarm on anything positive
    chain = HandlerChain([Block(blocked=True), sentinel])
    result = chain.process(DataValue(5), make_ctx(is_write=True))
    assert result.blocked
    assert [e.event_type for e in result.events] == ["write-denied"]


def test_chain_cost_sums_handler_costs():
    chain = HandlerChain([Scale(), Monitor(high=1.0), Block()])
    assert chain.cost == pytest.approx(
        Scale.cost + Monitor.cost + Block.cost
    )


def test_chain_state_roundtrip():
    chain = HandlerChain([Override(), Monitor(high=1.0), Block()])
    chain.handlers[0].activate(9)
    chain.handlers[1].in_alarm = True
    chain.handlers[2].blocked = True
    other = HandlerChain([Override(), Monitor(high=1.0), Block()])
    other.restore(chain.state())
    assert other.handlers[0].active
    assert other.handlers[1].in_alarm
    assert other.handlers[2].blocked


def test_chain_restore_shape_mismatch_rejected():
    chain = HandlerChain([Override()])
    with pytest.raises(ValueError):
        chain.restore(((), ()))
