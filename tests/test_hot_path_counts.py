"""Tier-1 guard for the per-message path: exact program counts per run.

Host time is noisy; the work the program does per operation is not. For
a short seeded ``update`` run (Figure 8(a): Frontend -> ordering -> Master
-> pushes -> HMI), a short ``bft-micro`` run (the bare library under a
1 KiB echo firehose) and a durable run with one update per decision
(``failover``'s shape without its fault) the tests below pin the counts
the benchmark's per-layer view is made of: canonical encodes, kernel
dispatches, network sends and deliveries, MAC computations, and the
sizes handed to the latency model, plus canonical decodes. A
reintroduced sizing encode, a voted push decoded again, an extra event
per message or a size shortcut (a hint that is not the exact wire size
moves the schedule) fails here instead of in a benchmark run nobody
made.

The counts are recorded from the code, not derived; a change that moves
one on purpose re-records it and says why.
"""

from __future__ import annotations

import operator
import random
import sys
from collections import Counter

import pytest

from repro.bftsmart import EchoService, GroupConfig, build_group, build_proxy
from repro.bftsmart import acceptor, executor, pool, proposer, replica
from repro.core import SmartScadaConfig, make_network
from repro.core.system import build_smartscada
from repro.crypto import KeyStore
from repro.crypto.mac import Authenticator
from repro.net import Network
from repro.net.latency import ConstantLatency, LanLatency
from repro.perf import clear_hot_path_caches
from repro.sim import Simulator
from repro.sim.events import Timeout
from repro.wire import Codec, encode
from repro.workloads.runner import run_update_experiment


@pytest.fixture
def counted(monkeypatch):
    """Counters around the per-message entry points (class attributes, so
    every call through an instance is seen)."""
    counts = {"encodes": 0, "decodes": 0, "macs": 0, "sized": 0, "size_bytes": 0}

    def wrap(owner, name, on_call):
        original = getattr(owner, name)

        def wrapper(self, *args):
            on_call(*args)
            return original(self, *args)

        monkeypatch.setattr(owner, name, wrapper)

    def bump(key):
        def on_call(*_args):
            counts[key] += 1

        return on_call

    def on_delay(size):
        counts["sized"] += 1
        counts["size_bytes"] += size

    wrap(Codec, "encode", bump("encodes"))
    wrap(Codec, "decode", bump("decodes"))
    wrap(Authenticator, "mac", bump("macs"))
    wrap(LanLatency, "delay", on_delay)
    wrap(ConstantLatency, "delay", on_delay)
    # Process-wide memo tables would otherwise carry state from earlier
    # tests into the run (a signing-payload memo cleared when full costs
    # an encode): every run starts as cold as a fresh process.
    clear_hot_path_caches()
    return counts


def _kernel_and_network(sim) -> dict:
    stats = sim.stats()
    return {
        "events": stats["events_dispatched"],
        "sent": stats["net"]["sent"],
        "delivered": stats["net"]["delivered"],
    }


def _update_run(seed: int, updates: int = 200, rate: float = 800.0) -> tuple:
    """Open-loop item updates at the Frontend, delivered at the HMI."""
    sim = Simulator(seed=seed)
    system = build_smartscada(sim, net=make_network(sim), config=SmartScadaConfig())
    items = [f"rtu.sensor.{i}" for i in range(20)]
    for item_id in items:
        system.frontend.add_item(item_id, initial=0)
    system.start()
    delivered = []
    system.hmi.on_value_change = lambda item_id, value: delivered.append(item_id)
    rng = random.Random(seed)

    def inject():
        for op in range(updates):
            yield sim.timeout(1.0 / rate)
            system.frontend.inject_update(items[rng.randrange(len(items))], -1 - op)

    sim.process(inject())
    sim.run(until=sim.now + updates / rate + 0.5)
    return len(delivered), _kernel_and_network(sim)


def _bft_micro_run(seed: int, requests: int = 300, rate: float = 25_000.0) -> tuple:
    """The bare library: 1 KiB echo requests at a fixed rate."""
    sim = Simulator(seed=seed)
    net = make_network(sim)
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, batch_max=500, batch_wait=0.001)
    build_group(sim, net, config, EchoService, keystore)
    proxy = build_proxy(sim, net, "load-client", config, keystore, invoke_timeout=5.0)
    rng = random.Random(seed)
    payloads = [op.to_bytes(8, "big") + rng.randbytes(1016) for op in range(requests)]
    echoed = []

    def on_reply(event, op):
        if event.ok and event.value == payloads[op]:
            echoed.append(op)

    def load():
        for op in range(requests):
            yield sim.timeout(1.0 / rate)
            proxy.invoke_ordered(payloads[op]).add_callback(
                lambda event, op=op: on_reply(event, op)
            )

    sim.process(load())
    sim.run(until=sim.now + requests / rate + 0.5)
    return len(echoed), _kernel_and_network(sim)


def _durable_run(seed: int, updates: int = 200, rate: float = 400.0) -> tuple:
    """``failover``'s deployment without its fault: durable replicas (a
    WAL append per decision), its timeouts, and open-loop updates at
    400/s, so every operation is a whole decision of its own."""
    sim = Simulator(seed=seed)
    config = SmartScadaConfig(
        durability=True, request_timeout=1.0, sync_timeout=2.0, invoke_timeout=0.5
    )
    system = build_smartscada(sim, net=make_network(sim), config=config)
    items = [f"rtu.sensor.{i}" for i in range(20)]
    for item_id in items:
        system.frontend.add_item(item_id, initial=0)
    system.start()
    delivered = []
    system.hmi.on_value_change = lambda item_id, value: delivered.append(item_id)
    rng = random.Random(seed)

    def inject():
        for op in range(updates):
            yield sim.timeout(1.0 / rate)
            system.frontend.inject_update(items[rng.randrange(len(items))], -1 - op)

    sim.process(inject())
    sim.run(until=sim.now + updates / rate + 0.5)
    counts = _kernel_and_network(sim)
    counts["decided"] = [replica.stats["decided"] for replica in system.replicas]
    return len(delivered), counts, system


#: Recorded per seed. ``encodes`` counts every ``Codec.encode`` call of the
#: run, build included; it lost one per update when the proxy started
#: submitting the bytes the network had sized the Frontend's ItemUpdate by.
#: Since what a proxy hands over in one instant travels in one envelope,
#: each update costs one flush event, the start-up burst (twenty initial
#: values and the browse reply; the HMI proxy's two subscriptions) takes
#: 84 sends fewer, and the leader's batch timer is gone. Only the sizes
#: moved when the ten protocol messages stopped naming their own sender
#: (the envelope does): ``update`` 1287642 -> 1208068 bytes, ``bft-micro``
#: 3741004 -> 3724240. Only the sizes moved again when the leader's PROPOSE
#: began to name its requests by ``(client_id, sequence)`` instead of
#: carrying them (the followers hold them already): ``update`` 1208068 ->
#: 1147810 bytes, ``bft-micro`` 3724240 -> 2754544. Every other count,
#: the encodes included, stayed exact: the PROPOSE is still one encode.
#: Only the encodes moved when the group's byte-identical outputs began to
#: be built once (the first replica to execute a request records its
#: Reply and its pushes on it, and the adapter records each pushed
#: payload on the shared operation): ``update`` 5570 -> 3572 (per update,
#: three of four Replies, ItemUpdate payloads and PushMessages),
#: ``bft-micro`` 1928 -> 1028 (three of four Replies per request).
#: Only the encodes moved when each slot's WRITE and ACCEPT began to be
#: built once per group (the first replica to vote records its vote on
#: the slot's RequestBatch, which every replica holds): ``update`` 3572
#: -> 2360 (three of four WriteMsgs and AcceptMsgs per instance, 202
#: instances), ``bft-micro`` 1028 -> 956 (12 instances). Only the MACs
#: moved when ``Authenticator.verify`` began to check a sealer's record
#: itself instead of through ``mac``: every delivery verified through
#: the record, so ``update`` 16092 -> 8046 and ``bft-micro`` 5448 ->
#: 2724 are the MACs the senders compute, one per receiver.
#: ``decodes`` counts every ``Codec.decode`` call; it is 0 because a
#: message travels with the bytes it encodes: the proxies submit messages,
#: so each request carries its body record, and the replicas push messages,
#: so each PushMessage does (445 on ``update`` before any of it).
#: Only ``events`` moved when the executor stopped being a process fed by
#: a channel: queuing a decided batch no longer dispatches the channel
#: put's no-op event, one per batch per replica (``update`` 11628 ->
#: 10820, ``bft-micro`` 3446 -> 3398); its get and its cost waits became
#: ``defer`` calls at the same instants, so every other count stayed exact.
UPDATE = {
    1: {
        "events": 10820,
        "sent": 8493,
        "delivered": 8493,
        "encodes": 2360,
        "decodes": 0,
        "macs": 8046,
        "sized": 8493,
        "size_bytes": 1147810,
    },
}
BFT_MICRO = {
    1: {
        "events": 3398,
        "sent": 2724,
        "delivered": 2724,
        "encodes": 956,
        "decodes": 0,
        "macs": 2724,
        "sized": 2724,
        "size_bytes": 2754544,
    },
}

#: ``failover``'s shape without its fault (:func:`_durable_run`): 202
#: decisions of one request each, every one WAL-appended by each of the
#: four replicas. Recorded when the group's WRITE, ACCEPT and WAL frame
#: became built once per slot: 5188 encodes before, 25.7 per decision
#: (each replica encoded its own WriteMsg, AcceptMsg and two-level WAL
#: frame), 2764 after, 13.7 per decision (one of each per group); the
#: MACs halved as on ``update`` (16092 -> 8046), and every other count
#: stayed exact.
DURABLE = {
    1: {
        "events": 10832,
        "sent": 8493,
        "delivered": 8493,
        "decided": [202, 202, 202, 202],
        "encodes": 2764,
        "decodes": 0,
        "macs": 8046,
        "sized": 8493,
        "size_bytes": 1147810,
    },
}


@pytest.mark.parametrize("seed", sorted(UPDATE))
def test_update_path_counts(counted, seed):
    ops, counts = _update_run(seed)
    assert {"ops": ops, **counts, **counted} == {"ops": 200, **UPDATE[seed]}


@pytest.mark.parametrize("seed", sorted(BFT_MICRO))
def test_bft_micro_path_counts(counted, seed):
    ops, counts = _bft_micro_run(seed)
    assert {"ops": ops, **counts, **counted} == {"ops": 300, **BFT_MICRO[seed]}


@pytest.mark.parametrize("seed", sorted(DURABLE))
def test_durable_unbatched_path_counts(counted, seed):
    ops, counts, _system = _durable_run(seed)
    assert {"ops": ops, **counts, **counted} == {"ops": 200, **DURABLE[seed]}


def test_each_decision_builds_its_votes_and_wal_frame_once(monkeypatch):
    """Per decision the group encodes one WriteMsg, one AcceptMsg and one
    WAL frame, however many replicas vote and log: the four disks hold
    the very same frame objects."""
    built = Counter()
    original = Codec.encode

    def encode_counted(self, value):
        built[type(value).__name__] += 1
        return original(self, value)

    monkeypatch.setattr(Codec, "encode", encode_counted)
    clear_hot_path_caches()
    ops, counts, system = _durable_run(1)
    decisions = counts["decided"][0]
    assert ops == 200 and counts["decided"] == [decisions] * 4
    assert built["WriteMsg"] == built["AcceptMsg"] == decisions
    logs = [replica.storage.disk.log_records() for replica in system.replicas]
    assert len(logs[0]) == decisions
    assert all(
        all(map(operator.is_, log, logs[0])) and len(log) == decisions
        for log in logs
    )


def test_a_saturated_update_run_decodes_nothing(counted):
    """Past the Master's capacity, operations queue between the proxy's
    submit and the last replica's execution. Each still travels with its
    request, so nothing is decoded however long it waits."""
    result = run_update_experiment(
        "smartscada", rate=1200, duration=1.5, warmup=0.3, seed=1
    )
    assert 0 < result.throughput < 1200  # saturated: the queue formed
    assert counted["decodes"] == 0


def test_size_hints_are_exact_wire_sizes(monkeypatch):
    """Every size a sender hands the network instead of a sizing encode is
    the envelope's exact canonical wire size: the latency model is a
    function of size, so a shortcut would move the schedule."""
    hinted = []
    original = Network.send

    def send(self, src, dst, payload, kind=None, size_hint=None):
        if size_hint is not None:
            hinted.append((size_hint, len(encode(payload))))
        return original(self, src, dst, payload, kind, size_hint)

    monkeypatch.setattr(Network, "send", send)
    _update_run(2, updates=50)
    _bft_micro_run(2, requests=50)
    assert len(hinted) > 1000
    assert all(hint == exact for hint, exact in hinted)


def test_the_executor_builds_no_kernel_event(monkeypatch):
    """Queuing a decided batch, handing it to the executor and waiting out
    its modelled cost go through ``defer``: no replica builds a
    ``Timeout`` for them. Each built timeout is charged to the innermost
    function of the replica's modules (the replica and its four roles) on
    the stack; the watchdog, still a process that sleeps on ``Timeout``s,
    is the only one, which also shows the probe sees replica events."""
    built = Counter()
    replica_files = {
        module.__file__ for module in (replica, pool, proposer, acceptor, executor)
    }
    original = Timeout.__init__

    def init(self, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_filename not in replica_files:
            frame = frame.f_back
        if frame is not None:
            built["Timeout", frame.f_code.co_name] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Timeout, "__init__", init)
    ops, _counts = _update_run(1)
    assert ops == 200
    assert set(built) == {("Timeout", "_watchdog")}

