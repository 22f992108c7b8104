"""One hostile frame costs its sender one rejected envelope, nothing more.

A member's or a client's MAC key lets it seal any bytes at all. The
secure channel verifies the MAC, then decodes; the codec must answer a
malformed payload with :class:`DecodeError` (which the channel counts
and drops), never with another exception that unwinds the receiving
replica's handler — one client would otherwise take down all ``n``
replicas, far outside any ``f`` budget.
"""

from __future__ import annotations

from repro.bftsmart import CounterService, GroupConfig, build_group, build_proxy
from repro.bftsmart.messages import ClientRequest, Sealed
from repro.crypto import KeyStore
from repro.net import ConstantLatency, Network
from repro.sim import Simulator
from repro.wire import GLOBAL_REGISTRY, decode, encode

ADD = encode(("add", 1))


def _group():
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, batch_wait=0.0)
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-0", config, keystore, invoke_timeout=0.5)
    return sim, replicas, proxy


def _send_raw(channel, receivers, payload: bytes) -> None:
    """Seal ``payload`` under ``channel``'s own key, one envelope each."""
    for receiver in receivers:
        sealed = Sealed(
            sender=channel.address,
            payload=payload,
            tags={receiver: channel.auth.mac(receiver, payload)},
        )
        channel.endpoint.send(receiver, sealed, "Garbage", len(encode(sealed)))


def _snapshot(replicas) -> list:
    return [
        (r.regency, r.last_decided, r.service.value, r.stats["rejected_requests"])
        for r in replicas
    ]


def _rejected(replicas) -> list:
    return [r.channel.rejected for r in replicas]


def test_a_replica_frame_with_an_unhashable_dict_key_is_one_rejected_envelope():
    sim, replicas, proxy = _group()
    assert decode(sim.run_process(_adds(sim, proxy, 2), until=5.0)) == 2
    before, rejected = _snapshot(replicas), _rejected(replicas)
    # A dict of one entry whose key is an empty list.
    _send_raw(replicas[3].channel, ["replica-0"], b"\x09\x01\x07\x00\x00")
    sim.run(until=sim.now + 0.01)
    assert _rejected(replicas) == [rejected[0] + 1] + rejected[1:]
    assert _snapshot(replicas) == before
    assert decode(sim.run_process(_adds(sim, proxy, 1), until=sim.now + 5.0)) == 3


def test_a_client_frame_naming_a_dataclass_as_an_enum_is_one_rejected_envelope_each():
    sim, replicas, proxy = _group()
    assert decode(sim.run_process(_adds(sim, proxy, 2), until=5.0)) == 2
    before, rejected = _snapshot(replicas), _rejected(replicas)
    type_id = GLOBAL_REGISTRY.id_of(ClientRequest)
    assert type_id < 0x80  # one varint byte
    _send_raw(
        proxy.channel, [r.address for r in replicas], bytes([0x0B, type_id, 0x00])
    )
    sim.run(until=sim.now + 0.01)
    assert _rejected(replicas) == [count + 1 for count in rejected]
    assert _snapshot(replicas) == before
    assert decode(sim.run_process(_adds(sim, proxy, 1), until=sim.now + 5.0)) == 3


def _adds(sim, proxy, count):
    result = None
    for _ in range(count):
        result = yield proxy.invoke_ordered(ADD)
    return result
