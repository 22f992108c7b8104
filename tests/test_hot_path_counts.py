"""Tier-1 guard for the per-message path: exact program counts per run.

Host time is noisy; the work the program does per operation is not. For
a short seeded ``update`` run (Figure 8(a): Frontend -> ordering -> Master
-> pushes -> HMI) and a short ``bft-micro`` run (the bare library under a
1 KiB echo firehose) the tests below pin the counts the benchmark's
per-layer view is made of: canonical encodes, kernel dispatches, network
sends and deliveries, MAC computations, and the sizes handed to the
latency model. A reintroduced sizing encode, an extra event per message
or a size shortcut (a hint that is not the exact wire size moves the
schedule) fails here instead of in a benchmark run nobody made.

The counts are recorded from the code, not derived; a change that moves
one on purpose re-records it and says why.
"""

from __future__ import annotations

import random

import pytest

from repro.bftsmart import EchoService, GroupConfig, build_group, build_proxy
from repro.core import SmartScadaConfig, make_network
from repro.core.system import build_smartscada
from repro.crypto import KeyStore
from repro.crypto.mac import Authenticator
from repro.net import Network
from repro.net.latency import ConstantLatency, LanLatency
from repro.perf import clear_hot_path_caches
from repro.sim import Simulator
from repro.wire import Codec, encode


@pytest.fixture
def counted(monkeypatch):
    """Counters around the per-message entry points (class attributes, so
    every call through an instance is seen)."""
    counts = {"encodes": 0, "macs": 0, "sized": 0, "size_bytes": 0}

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


#: Recorded per seed. ``encodes`` counts every ``Codec.encode`` call of the
#: run, build included; it lost one per update when the proxy started
#: submitting the bytes the network had sized the Frontend's ItemUpdate by.
#: Since what a proxy hands over in one instant travels in one envelope,
#: each update costs one flush event, the start-up burst (twenty initial
#: values and the browse reply; the HMI proxy's two subscriptions) takes
#: 84 sends fewer, and the leader's batch timer is gone.
UPDATE = {
    1: {
        "events": 11628,
        "sent": 8493,
        "delivered": 8493,
        "encodes": 5570,
        "macs": 16092,
        "sized": 8493,
        "size_bytes": 1287642,
    },
}
BFT_MICRO = {
    1: {
        "events": 3446,
        "sent": 2724,
        "delivered": 2724,
        "encodes": 1928,
        "macs": 5448,
        "sized": 2724,
        "size_bytes": 3741004,
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
