"""Tracing must be behaviour-invisible.

Installing a tracer adds observation, never scheduling: the span hooks
read simulated time and touch tracer-private state only, and the wire
``trace_id`` field is always encoded (as ``""`` when unstamped) so frame
sizes — and therefore size-dependent network latency — are identical
with tracing on or off. A seeded run with a tracer installed must
dispatch the exact same event stream as the same run without one. The
CI determinism job runs this guard.
"""

from repro.bftsmart import CounterService, GroupConfig, build_group, build_proxy
from repro.crypto import KeyStore
from repro.net import LanLatency, Network
from repro.obs.trace import install_tracer
from repro.sim import Simulator
from repro.wire import decode, encode

CLIENTS = 2
REQUESTS_EACH = 25


def run_seeded(traced: bool, seed: int = 7):
    sim = Simulator(seed=seed)
    tracer = install_tracer(sim) if traced else None
    # LanLatency is size-dependent: if tracing changed a single frame's
    # length, delivery times — and the whole schedule — would diverge.
    net = Network(sim, latency=LanLatency(rng=sim.rng.stream("net")))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, batch_max=8, batch_wait=0.0005)
    replicas = build_group(sim, net, config, CounterService, keystore)
    events = []

    def sender(proxy):
        for _ in range(REQUESTS_EACH):
            events.append(proxy.invoke_ordered(encode(("add", 1))))
            yield sim.timeout(0.002)

    for i in range(CLIENTS):
        proxy = build_proxy(
            sim, net, f"client-{i}", config, keystore, invoke_timeout=30.0
        )
        sim.process(sender(proxy))
    sim.run(until=sim.now + 10)
    assert all(event.ok for event in events)
    return sim, tracer, replicas


def decided_stream(replica):
    stream = []
    for _cid, value, _timestamp in replica.decision_log:
        if value == b"":
            continue
        for request in decode(value).requests:
            stream.append((request.client_id, request.sequence))
    return stream


def test_tracing_on_and_off_dispatch_identical_schedules():
    sim_off, _none, replicas_off = run_seeded(traced=False)
    sim_on, tracer, replicas_on = run_seeded(traced=True)

    # Same executed request stream on every replica, across both runs.
    streams_off = [decided_stream(r) for r in replicas_off]
    streams_on = [decided_stream(r) for r in replicas_on]
    assert all(s == streams_off[0] for s in streams_off)
    assert streams_on == streams_off
    assert len(streams_off[0]) == CLIENTS * REQUESTS_EACH

    # Same schedule, event for event, ending at the same instant.
    assert sim_on.dispatched == sim_off.dispatched
    assert sim_on.now == sim_off.now
    assert [r.service.value for r in replicas_on] == [
        r.service.value for r in replicas_off
    ]

    # And the traced run actually observed the workload.
    assert tracer is not None
    assert len(tracer.spans) > 0
    assert any(s.name == "consensus" for s in tracer.spans)


def test_disabled_tracer_is_inert():
    sim, tracer, _replicas = run_seeded(traced=True, seed=9)
    before = len(tracer.spans)
    tracer.enabled = False
    span = None
    if sim.tracer is not None and sim.tracer.enabled:  # the hook guard
        span = sim.tracer.begin("x", "t")
    assert span is None
    assert len(tracer.spans) == before


# ----------------------------------------------------------------------
# sharded deployments: the same invariants across the shard tier
# ----------------------------------------------------------------------

from repro.neoscada import HandlerChain, Monitor  # noqa: E402
from repro.core import ShardedScadaConfig, build_sharded_scada  # noqa: E402

SENSORS = [f"plant.s{i}" for i in range(6)]


def run_sharded(traced: bool, seed: int = 11):
    """Two BFT groups behind one namespace: updates spanning both
    shards, one operator write and one wildcard event query."""
    sim = Simulator(seed=seed)
    tracer = install_tracer(sim) if traced else None
    net = Network(sim, latency=LanLatency(rng=sim.rng.stream("net")))
    system = build_sharded_scada(
        sim, net=net, config=ShardedScadaConfig(shards=2)
    )
    for sensor in SENSORS:
        system.frontend.add_item(sensor, initial=20)
        system.attach_handlers(
            sensor, lambda: HandlerChain([Monitor(high=80.0)])
        )
    system.frontend.add_item("plant.actuator", initial=0, writable=True)
    system.start()
    outcome = {}

    def updates():
        for rnd in range(3):
            for i, sensor in enumerate(SENSORS):
                value = 90 if (i + rnd) % 3 == 0 else 30
                system.frontend.inject_update(sensor, value)
                yield sim.timeout(0.02)

    def operator():
        yield sim.timeout(0.3)
        result = yield system.hmi.write("plant.actuator", 42)
        outcome["write_ok"] = result.success
        events = yield system.hmi.query_events("*")
        outcome["events"] = len(events)

    sim.process(updates())
    sim.process(operator())
    sim.run(until=2.0)
    system.flush_events()
    sim.run(until=2.5)
    return sim, tracer, system, outcome


def test_sharded_tracing_on_and_off_identical_schedules():
    sim_off, _none, system_off, outcome_off = run_sharded(traced=False)
    sim_on, tracer, system_on, outcome_on = run_sharded(traced=True)
    assert outcome_off["write_ok"] and outcome_off["events"] > 0
    assert outcome_on == outcome_off
    # Byte-identical frames (LanLatency is size-dependent), so the
    # schedule cannot diverge even across the shard tier.
    assert sim_on.dispatched == sim_off.dispatched
    assert sim_on.now == sim_off.now
    stream = lambda s: [  # noqa: E731
        (e.event_id, e.item_id, e.timestamp) for e in s.hmi.events
    ]
    assert stream(system_on) == stream(system_off)
    assert tracer is not None and len(tracer.spans) > 0


def test_write_trace_links_hmi_through_router_to_group():
    _sim, tracer, _system, outcome = run_sharded(traced=True)
    assert outcome["write_ok"]
    roots = [s for s in tracer.spans if s.name == "hmi.write"]
    assert len(roots) == 1
    spans = tracer.spans_for(roots[0].trace_id)
    names = {s.name for s in spans}
    assert {"hmi.write", "proxy.forward", "shard.route"} <= names
    route = next(s for s in spans if s.name == "shard.route")
    shard = route.attrs["shard"]
    assert route.attrs["item"] == "plant.actuator"
    # The consensus work of the owning group is causally linked in.
    group_processes = {
        s.process
        for s in spans
        if s.process.startswith(f"s{shard}-replica")
    }
    assert group_processes, "no replica-side span joined the write trace"


def test_wildcard_query_trace_spans_both_groups():
    _sim, tracer, _system, outcome = run_sharded(traced=True)
    assert outcome["events"] > 0
    scatters = [
        s
        for s in tracer.spans
        if s.name == "shard.scatter" and s.attrs.get("op") == "event-query"
    ]
    assert len(scatters) == 1
    spans = tracer.spans_for(scatters[0].trace_id)
    fanout = [s for s in spans if s.name == "shard.scatter.fanout"]
    assert sorted(s.attrs["shard"] for s in fanout) == [0, 1]
    # One causally-linked trace with replica-side execution on *both*
    # groups: the scatter really fanned out across the fleet.
    executed_on = {
        s.process[:3]
        for s in spans
        if s.name == "request.execute" and s.process.startswith("s")
    }
    assert {"s0-", "s1-"} <= executed_on
