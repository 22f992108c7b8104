"""A client's envelope of requests fails closed, one request at a time.

``ServiceProxy.invoke_ordered_together`` sends the operations a client
hands over in one instant as one :class:`RequestBatch` envelope. The
envelope only changes how the requests travel: every request in it is
verified, deduplicated, answered and retransmitted on its own, and an
envelope no honest client sends is dropped whole.
"""

from __future__ import annotations

import dataclasses

from repro.bftsmart import CounterService, GroupConfig, build_group, build_proxy
from repro.bftsmart.messages import ClientRequest, RequestBatch
from repro.core import SmartScadaConfig, build_smartscada, make_network
from repro.crypto import KeyStore
from repro.net import ConstantLatency, Network
from repro.sim import Simulator
from repro.wire import decode, encode

ADD = encode(("add", 1))


def _group(batch_max=8):
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, batch_max=batch_max, batch_wait=0.0)
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-0", config, keystore, invoke_timeout=0.3)
    return sim, replicas, proxy


def _send_envelope(proxy, requests) -> None:
    proxy.channel.multicast(proxy.view.addresses, RequestBatch(requests=tuple(requests)))


def test_a_badly_signed_request_rejects_only_itself():
    sim, replicas, proxy = _group()
    good = [proxy._sign(sequence, ADD, False) for sequence in range(3)]
    forged = dataclasses.replace(good[1], operation=encode(("add", 100)))
    _send_envelope(proxy, [good[0], forged, good[2]])
    sim.run(until=1.0)
    for replica in replicas:
        assert replica.stats["rejected_requests"] == 1
        assert replica.stats["executed"] == 2
        assert replica.service.value == 2
    # Everything that was admitted went into one PROPOSE.
    assert replicas[0].stats["proposals"] == 1


def test_a_request_whose_replies_were_lost_is_retransmitted_alone(monkeypatch):
    sim, replicas, proxy = _group()
    sent = []
    multicast = proxy.channel.multicast

    def recording(targets, message):
        sent.append(message)
        multicast(targets, message)

    monkeypatch.setattr(proxy.channel, "multicast", recording)
    on_reply = proxy._on_reply

    def lossy(reply, sender):
        if reply.sequence == 1 and sim.now < 0.2:
            return  # the first round of replies to the second request is lost
        on_reply(reply, sender)

    monkeypatch.setattr(proxy, "_on_reply", lossy)
    events = proxy.invoke_ordered_together([ADD, ADD])
    sim.run(until=2.0)

    assert [decode(event.value) for event in events] == [1, 2]
    assert [type(message) for message in sent] == [RequestBatch, ClientRequest]
    assert sent[1].sequence == 1
    assert proxy.stats["retransmissions"] == 1
    for replica in replicas:
        assert replica.stats["executed"] == 2
        assert replica.service.value == 2


def test_an_older_request_whose_replies_were_lost_is_answered_from_the_cache(
    monkeypatch,
):
    # Both requests execute in one batch; every reply to the older one is
    # lost. Its retransmission reaches replicas that executed the newer
    # one since, and each answers from the replies of the client's last
    # executed batch instead of re-executing it or staying silent.
    sim, replicas, proxy = _group()
    on_reply = proxy._on_reply

    def lossy(reply, sender):
        if reply.sequence == 0 and sim.now < 0.2:
            return  # the first round of replies to the first request is lost
        on_reply(reply, sender)

    monkeypatch.setattr(proxy, "_on_reply", lossy)
    events = proxy.invoke_ordered_together([ADD, ADD])
    sim.run(until=2.0)

    assert all(event.triggered for event in events)
    assert [decode(event.value) for event in events] == [1, 2]
    assert proxy.stats["retransmissions"] == 1
    assert proxy.stats["failures"] == 0
    for replica in replicas:
        assert replica.stats["executed"] == 2
        assert replica.service.value == 2


def test_an_envelope_larger_than_one_propose_is_dropped_whole():
    sim, replicas, proxy = _group(batch_max=4)
    requests = [proxy._sign(sequence, ADD, False) for sequence in range(5)]
    _send_envelope(proxy, requests)
    sim.run(until=1.0)
    for replica in replicas:
        assert replica.stats["rejected_requests"] == 1
        assert replica.stats["executed"] == 0
        assert not replica.pool.pending
    # One request fewer fits, and is ordered in one PROPOSE.
    _send_envelope(proxy, requests[:4])
    sim.run(until=2.0)
    assert [replica.service.value for replica in replicas] == [4] * 4
    assert replicas[0].stats["proposals"] == 1


def test_the_frontend_proxy_splits_a_burst_into_envelopes_that_fit():
    # Start-up hands the proxy twenty initial values and the browse reply
    # in one instant; at batch_max 8 they travel as envelopes of 8, 8, 5.
    sim = Simulator(seed=1)
    system = build_smartscada(
        sim, net=make_network(sim), config=SmartScadaConfig(batch_max=8)
    )
    for i in range(20):
        system.frontend.add_item(f"rtu.sensor.{i}", initial=0)
    envelopes = []
    client = system.proxy_frontends[0].bft_clients[0]
    invoke = client.invoke_ordered_together

    def recording(operations):
        envelopes.append(len(operations))
        return invoke(operations)

    client.invoke_ordered_together = recording
    system.start()
    sim.run(until=1.0)
    assert envelopes == [8, 8, 5]
    replicas = [pm.replica for pm in system.proxy_masters]
    assert [r.stats["rejected_requests"] for r in replicas] == [0] * 4
    assert all(r.stats["executed"] == replicas[0].stats["executed"] for r in replicas)
    assert client.stats["invocations"] == 21 and not client._pending
