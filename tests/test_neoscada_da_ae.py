"""Unit tests for the DA and AE interfaces (servers, clients, subscriptions)."""

from repro.neoscada import DataValue, EventRecord, Severity
from repro.neoscada.ae.client import AEClient
from repro.neoscada.ae.server import AEServer
from repro.neoscada.da.client import DAClient
from repro.neoscada.da.server import DAServer
from repro.neoscada.da.subscription import SubscriptionManager
from repro.neoscada.messages import (
    BrowseReply,
    BrowseRequest,
    ItemUpdate,
    Subscribe,
    SubscribeEvents,
    Unsubscribe,
    UnsubscribeEvents,
    WriteResult,
    WriteValue,
)


class FakeTransport:
    """Collects (dst, message) pairs and can loop them back."""

    def __init__(self):
        self.sent = []

    def __call__(self, dst, message):
        self.sent.append((dst, message))

    def of_kind(self, cls):
        return [(dst, m) for dst, m in self.sent if isinstance(m, cls)]


# -- SubscriptionManager -----------------------------------------------------


def test_subscription_exact_and_wildcard():
    subs = SubscriptionManager()
    subs.subscribe("a", "item-1")
    subs.subscribe("b", "*")
    assert subs.subscribers_for("item-1") == ["a", "b"]
    assert subs.subscribers_for("other") == ["b"]


def test_subscription_unsubscribe():
    subs = SubscriptionManager()
    subs.subscribe("a", "item-1")
    subs.unsubscribe("a", "item-1")
    assert subs.subscribers_for("item-1") == []
    subs.unsubscribe("a", "never-there")  # no-op


def test_subscription_drop_subscriber():
    subs = SubscriptionManager()
    subs.subscribe("a", "x")
    subs.subscribe("a", "*")
    subs.subscribe("b", "x")
    subs.drop_subscriber("a")
    assert subs.subscribers_for("x") == ["b"]


def test_subscribers_are_sorted_deterministically():
    subs = SubscriptionManager()
    for name in ("zeta", "alpha", "mid"):
        subs.subscribe(name, "i")
    assert subs.subscribers_for("i") == ["alpha", "mid", "zeta"]


# -- DAServer -------------------------------------------------------------------


def test_da_server_subscribe_and_publish():
    transport = FakeTransport()
    server = DAServer(transport)
    assert server.dispatch(Subscribe(subscriber="hmi", item_id="*"), "hmi")
    count = server.publish("item-1", DataValue(5))
    assert count == 1
    assert transport.sent == [("hmi", ItemUpdate(item_id="item-1", value=DataValue(5)))]


def test_da_server_publish_exclude():
    transport = FakeTransport()
    server = DAServer(transport)
    server.dispatch(Subscribe(subscriber="a", item_id="i"), "a")
    server.dispatch(Subscribe(subscriber="b", item_id="i"), "b")
    assert server.publish("i", DataValue(1), exclude="a") == 1
    assert transport.sent[0][0] == "b"


def test_da_server_unsubscribe_stops_updates():
    transport = FakeTransport()
    server = DAServer(transport)
    server.dispatch(Subscribe(subscriber="a", item_id="i"), "a")
    server.dispatch(Unsubscribe(subscriber="a", item_id="i"), "a")
    assert server.publish("i", DataValue(1)) == 0


def test_da_server_routes_writes_to_owner():
    transport = FakeTransport()
    writes = []
    server = DAServer(transport, on_write=lambda m, src: writes.append((m, src)))
    message = WriteValue(item_id="i", value=1, op_id="op", reply_to="hmi")
    assert server.dispatch(message, "hmi")
    assert writes == [(message, "hmi")]


def test_da_server_browse():
    transport = FakeTransport()
    server = DAServer(transport, browse_source=lambda: [("i", True)])
    server.dispatch(BrowseRequest(reply_to="hmi"), "hmi")
    assert transport.sent == [("hmi", BrowseReply(items=(("i", True),)))]


def test_da_server_ignores_foreign_messages():
    server = DAServer(FakeTransport())
    assert not server.dispatch("not-a-da-message", "x")


def test_da_server_on_subscribe_hook():
    transport = FakeTransport()
    seen = []
    server = DAServer(transport, on_subscribe=lambda sub, item: seen.append((sub, item)))
    server.dispatch(Subscribe(subscriber="a", item_id="*"), "a")
    assert seen == [("a", "*")]


# -- DAClient ----------------------------------------------------------------------


def test_da_client_subscribe_sends_message():
    transport = FakeTransport()
    client = DAClient("me", transport)
    client.subscribe("server", "item")
    client.unsubscribe("server", "item")
    assert transport.sent == [
        ("server", Subscribe(subscriber="me", item_id="item")),
        ("server", Unsubscribe(subscriber="me", item_id="item")),
    ]


def test_da_client_update_callback():
    seen = []
    client = DAClient("me", FakeTransport(), on_update=lambda m, src: seen.append(m))
    update = ItemUpdate(item_id="i", value=DataValue(2))
    assert client.dispatch(update, "server")
    assert seen == [update]
    assert client.updates_received == 1


def test_da_client_write_result_correlation():
    transport = FakeTransport()
    client = DAClient("me", transport)
    results = []
    op = client.write("server", "i", 5, results.append, operator="alice")
    sent_dst, sent_msg = transport.sent[0]
    assert sent_dst == "server"
    assert sent_msg.op_id == op
    assert sent_msg.operator == "alice"
    assert client.pending_write_count() == 1
    result = WriteResult(item_id="i", op_id=op, success=True)
    assert client.dispatch(result, "server")
    assert results == [result]
    assert client.pending_write_count() == 0


def test_da_client_unknown_write_result_ignored():
    client = DAClient("me", FakeTransport())
    assert client.dispatch(WriteResult(item_id="i", op_id="ghost", success=True), "s")


def test_da_client_op_ids_unique():
    client = DAClient("me", FakeTransport())
    ops = {client.next_op_id() for _ in range(100)}
    assert len(ops) == 100


# -- AE -------------------------------------------------------------------------------


def make_event(item="i"):
    return EventRecord(
        event_id="e1",
        item_id=item,
        event_type="alarm",
        severity=Severity.ALARM,
        value=1,
        message="m",
        timestamp=0.0,
    )


def test_ae_server_publish_to_matching_subscribers():
    transport = FakeTransport()
    server = AEServer(transport)
    server.dispatch(SubscribeEvents(subscriber="hmi", item_id="i"), "hmi")
    server.dispatch(SubscribeEvents(subscriber="other", item_id="different"), "other")
    assert server.publish(make_event("i")) == 1
    assert transport.sent[0][0] == "hmi"


def test_ae_client_event_callback():
    seen = []
    client = AEClient("me", FakeTransport(), on_event=lambda e, src: seen.append(e))
    from repro.neoscada.messages import EventUpdate

    event = make_event()
    assert client.dispatch(EventUpdate(event=event), "server")
    assert seen == [event]
    assert client.events_received == 1


def test_ae_client_subscribe_message():
    transport = FakeTransport()
    client = AEClient("me", transport)
    client.subscribe("server", "*")
    client.unsubscribe("server", "*")
    assert transport.sent == [
        ("server", SubscribeEvents(subscriber="me", item_id="*")),
        ("server", UnsubscribeEvents(subscriber="me", item_id="*")),
    ]
