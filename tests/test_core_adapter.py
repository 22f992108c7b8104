"""Focused tests for the Adapter (ScadaService): the heart of SMaRt-SCADA."""

import pytest

from repro.bftsmart.service import MessageContext
from repro.core.adapter import SCADA_STREAM, ScadaService
from repro.core.context import ContextInfo
from repro.neoscada import DataValue, HandlerChain, Monitor, ScadaMaster
from repro.neoscada.messages import BrowseReply, ItemUpdate, Subscribe, WriteValue
from repro.net import ConstantLatency, Network
from repro.sim import Simulator
from repro.wire import decode, encode


class FakeReplica:
    """Stands in for the ServiceReplica: decodes afresh, records pushes."""

    decoded = staticmethod(decode)

    def __init__(self):
        self.pushes = []

        class _View:
            addresses = ("replica-0", "replica-1", "replica-2", "replica-3")

        self.view = _View()

    def push(self, client_id, stream, order, payload):
        self.pushes.append((client_id, stream, order, payload))


def make_service(seed=1):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.0001))
    master = ScadaMaster(sim, net, "scada-master", frontends=[], workers=0, jitter=0.0)
    context = ContextInfo()
    master.clock = context.now
    master.event_id_source = context.next_event_id
    service = ScadaService(master, context)
    replica = FakeReplica()
    service._replica = replica
    return sim, master, service, replica


def ctx(cid=0, order=0, timestamp=1.0, client="proxy-frontend-0-bft"):
    return MessageContext(
        cid=cid,
        order=order,
        timestamp=timestamp,
        client_id=client,
        sequence=cid,
        replica="replica-0",
    )


def test_update_operation_executes_and_pushes_to_subscriber():
    _sim, master, service, replica = make_service()
    service.execute(
        encode(Subscribe(subscriber="proxy-hmi-bft", item_id="*")),
        ctx(cid=0, client="proxy-hmi-bft"),
    )
    result = service.execute(
        encode(ItemUpdate("s", DataValue(5))), ctx(cid=1)
    )
    assert decode(result) == ("ok", "update")
    assert master.items.get("s").value.value == 5
    assert len(replica.pushes) == 1
    client_id, stream, order, message = replica.pushes[0]
    assert client_id == "proxy-hmi-bft"
    assert stream == SCADA_STREAM
    assert order == (1, 0, 1)
    assert message == ItemUpdate("s", DataValue(5))


def test_event_ids_and_timestamps_come_from_consensus():
    _sim, master, service, _replica = make_service()
    master.attach_handlers("s", HandlerChain([Monitor(high=1.0)]))
    service.execute(
        encode(ItemUpdate("s", DataValue(50))), ctx(cid=7, order=2, timestamp=33.25)
    )
    event = master.storage.latest(1)[0]
    assert event.event_id == "evt-7-2-1"
    assert event.timestamp == 33.25


def test_identical_operation_sequences_produce_identical_snapshots():
    operations = [
        (encode(Subscribe(subscriber="proxy-hmi-bft", item_id="*")), "proxy-hmi-bft"),
        (encode(BrowseReply(items=(("valve", True),))), "proxy-frontend-0-bft"),
        (encode(ItemUpdate("s", DataValue(5))), "proxy-frontend-0-bft"),
        (encode(WriteValue("valve", 1, "op1", "proxy-hmi-bft", "alice")), "proxy-hmi-bft"),
        (encode(ItemUpdate("s", DataValue(7))), "proxy-frontend-0-bft"),
    ]

    def run(seed):
        _sim, master, service, _replica = make_service(seed=seed)
        master.attach_handlers("s", HandlerChain([Monitor(high=6.0)]))
        for cid, (operation, client) in enumerate(operations):
            service.execute(operation, ctx(cid=cid, timestamp=cid * 0.5, client=client))
        return service.snapshot()

    assert run(1) == run(99)  # different simulator seeds, same state


def test_snapshot_roundtrip_restores_master_and_subscriptions():
    _sim, master, service, _replica = make_service()
    master.attach_handlers("s", HandlerChain([Monitor(high=1.0)]))
    service.execute(
        encode(Subscribe(subscriber="proxy-hmi-bft", item_id="*")),
        ctx(cid=0, client="proxy-hmi-bft"),
    )
    service.execute(encode(ItemUpdate("s", DataValue(50))), ctx(cid=1))
    snapshot = service.snapshot()

    _sim2, master2, service2, _replica2 = make_service(seed=2)
    master2.attach_handlers("s", HandlerChain([Monitor(high=1.0)]))
    service2.install_snapshot(snapshot)
    assert service2.snapshot() == snapshot
    assert master2.items.get("s").value.value == 50
    assert master2.da_server.subscriptions.is_subscribed("proxy-hmi-bft", "*")
    assert master2.chains["s"].handlers[0].in_alarm


def test_undecodable_operation_is_counted_not_fatal():
    _sim, _master, service, _replica = make_service()
    result = service.execute(b"\xff\xff garbage", ctx())
    assert decode(result)[0] == "error"
    assert service.stats["bad_operations"] == 1


def test_cost_of_distinguishes_kinds():
    _sim, master, service, _replica = make_service()
    update_cost = service.cost_of(encode(ItemUpdate("s", DataValue(1))))
    write_cost = service.cost_of(
        encode(WriteValue("s", 1, "op", "proxy-hmi-bft"))
    )
    control_cost = service.cost_of(
        encode(Subscribe(subscriber="x", item_id="*"))
    )
    assert update_cost == pytest.approx(master.cost_of("update", "s"))
    assert write_cost > update_cost
    assert control_cost == 0.0


def test_post_cost_reports_event_work_once():
    _sim, master, service, _replica = make_service()
    master.attach_handlers("s", HandlerChain([Monitor(high=1.0)]))
    service.execute(encode(ItemUpdate("s", DataValue(50))), ctx(cid=0))
    first = service.post_cost()
    assert first > 0
    assert service.post_cost() == 0.0  # consumed


def test_forged_timeout_vote_sender_is_rejected():
    from repro.bftsmart.messages import TimeoutVote
    from repro.core.timeout import LogicalTimeoutManager

    sim, master, service, replica = make_service()
    timeouts = LogicalTimeoutManager(
        sim, "replica-0", timeout=1.0, majority=3, send_vote=lambda v: None
    )
    service.timeouts = timeouts
    timeouts.arm("scada-master:w1", "valve")
    # replica-3 votes, but the operation arrives through replica-2's
    # adapter client: ballot stuffing, rejected.
    forged = TimeoutVote(replica="replica-3", operation_key=("scada-master:w1",))
    service.execute(
        encode(forged), ctx(client="replica-2-adapter")
    )
    assert timeouts._votes.get("scada-master:w1") is None
