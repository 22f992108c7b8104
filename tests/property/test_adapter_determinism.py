"""Property: the Adapter-driven Master core is deterministic.

For ANY sequence of SCADA operations, two independent Master replicas
fed the same ordered stream (with the same ContextInfo inputs) must end
in byte-identical snapshots — the property all of §III-B/§IV-C exists to
establish. Hypothesis generates the operation sequences.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bftsmart.service import MessageContext
from repro.core.adapter import ScadaService
from repro.core.context import ContextInfo
from repro.neoscada import DataValue, HandlerChain, Monitor, Scale, ScadaMaster
from repro.neoscada.messages import (
    BrowseReply,
    ItemUpdate,
    Subscribe,
    WriteResult,
    WriteValue,
)
from repro.net import ConstantLatency, Network
from repro.sim import Simulator
from repro.wire import decode


class _NullReplica:
    decoded = staticmethod(decode)

    def push(self, client_id, stream, order, payload):
        pass


ITEMS = ("alpha", "beta", "gamma")

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("update"),
            st.sampled_from(ITEMS),
            st.integers(min_value=-50, max_value=400),
        ),
        st.tuples(
            st.just("write"),
            st.sampled_from(ITEMS),
            st.integers(min_value=0, max_value=100),
        ),
        st.tuples(
            st.just("write_result"),
            st.sampled_from(ITEMS),
            st.integers(min_value=1, max_value=5),
        ),
        st.tuples(st.just("subscribe"), st.sampled_from(ITEMS + ("*",)), st.just(0)),
    ),
    max_size=30,
)


def build_service(seed):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.0001))
    master = ScadaMaster(sim, net, "scada-master", frontends=[], workers=0, jitter=0.0)
    context = ContextInfo()
    master.clock = context.now
    master.event_id_source = context.next_event_id
    for item in ITEMS:
        master.attach_handlers(
            item, HandlerChain([Scale(0.5), Monitor(high=100.0)])
        )
    service = ScadaService(master, context)
    service._replica = _NullReplica()
    # Item directory, as the ProxyFrontend's forwarded browse provides.
    service.execute(
        _encode(BrowseReply(items=tuple((i, True) for i in ITEMS))),
        _ctx(0, "proxy-frontend-0-bft"),
    )
    return service


def _encode(message):
    from repro.wire import encode

    return encode(message)


def _ctx(cid, client):
    return MessageContext(
        cid=cid,
        order=0,
        timestamp=cid * 0.25,
        client_id=client,
        sequence=cid,
        replica="replica-x",
    )


def _to_message(op):
    kind, item, value = op
    if kind == "update":
        return ItemUpdate(item, DataValue(value)), "proxy-frontend-0-bft"
    if kind == "write":
        return (
            WriteValue(item, value, f"op-{item}-{value}", "proxy-hmi-bft", "op-1"),
            "proxy-hmi-bft",
        )
    if kind == "write_result":
        return (
            WriteResult(item, f"scada-master:w{value}", True),
            "proxy-frontend-0-bft",
        )
    return Subscribe(subscriber="proxy-hmi-bft", item_id=item), "proxy-hmi-bft"


@given(operations)
@settings(max_examples=40, deadline=None)
def test_any_operation_sequence_is_deterministic(ops):
    def run(seed):
        service = build_service(seed)
        for cid, op in enumerate(ops, start=1):
            message, client = _to_message(op)
            service.execute(_encode(message), _ctx(cid, client))
        return service.snapshot()

    # Different simulator seeds (i.e. different "machines"), same stream.
    assert run(1) == run(424242)


@given(operations)
@settings(max_examples=20, deadline=None)
def test_snapshot_install_is_lossless_for_any_history(ops):
    service = build_service(1)
    for cid, op in enumerate(ops, start=1):
        message, client = _to_message(op)
        service.execute(_encode(message), _ctx(cid, client))
    snapshot = service.snapshot()
    fresh = build_service(2)
    fresh.install_snapshot(snapshot)
    assert fresh.snapshot() == snapshot
