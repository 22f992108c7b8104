"""Tier-1 guard: hot-path memos live exactly as long as what they describe.

Every per-message memo is a record (``repro.wire.record`` /
``repro.wire.recorded``) stored on the object it describes — the
envelope's MAC records and message, the request's signing record, the
leader's batch on its Propose, the group's Reply and PushMessages on the
request they answer, the message each request and push carries as its
body, each frozen message's own encoding — so it dies with that object. One table spans objects (the
content-keyed digest memo), and it is bounded. After a run and its
deployment are gone, what ``src/repro`` allocated and still holds is
that table and nothing else.
"""

from __future__ import annotations

import gc
import pathlib
import tracemalloc
import weakref

from repro.bftsmart import EchoService, GroupConfig, build_group, build_proxy
from repro.bftsmart.channel import SecureChannel
from repro.bftsmart.messages import BODY, PushMessage, Stop
from repro.core import SmartScadaConfig, adapter, make_network
from repro.core.system import build_smartscada
from repro.crypto import KeyStore
from repro.crypto.digest import _DIGEST_CACHE, _DIGEST_CACHE_LIMIT
from repro.net import ConstantLatency, Network
from repro.perf import clear_hot_path_caches
from repro.sim import Simulator
from repro.wire import recorded
from tests.test_hot_path_counts import _bft_micro_run, _update_run

SRC = str(pathlib.Path(adapter.__file__).resolve().parent.parent) + "/"

#: What src/repro may still hold after the 300-request bft-micro run:
#: the digest memo's entries (a reply digest per request, the PROPOSE
#: values it hashed) and small per-process tables. Process-global MAC,
#: signature, signing-payload and envelope-decode tables hold 4.2 MiB.
RETAINED_LIMIT = 1024 * 1024


def _retained_under_src(run) -> int:
    """Bytes allocated by ``src/repro`` during ``run()`` still alive after it."""
    clear_hot_path_caches()
    gc.collect()
    tracemalloc.start(1)
    try:
        before = tracemalloc.take_snapshot()
        run()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    under_src = [tracemalloc.Filter(True, SRC + "*")]
    diff = after.filter_traces(under_src).compare_to(
        before.filter_traces(under_src), "filename"
    )
    return sum(stat.size_diff for stat in diff if stat.size_diff > 0)


def test_bft_micro_run_leaves_at_most_a_mebibyte_under_src_repro():
    def run():
        ops, _counts = _bft_micro_run(1)
        assert ops == 300

    assert _retained_under_src(run) <= RETAINED_LIMIT


def test_update_run_leaves_at_most_a_mebibyte_under_src_repro():
    # The SCADA path adds the group's records (Reply and PushMessages on
    # each request) and the body records: the message each proxy request
    # and each push carries.
    def run():
        ops, _counts = _update_run(1)
        assert ops == 200

    assert _retained_under_src(run) <= RETAINED_LIMIT


def test_the_remaining_table_stays_within_its_bound():
    clear_hot_path_caches()
    _update_run(1)
    _bft_micro_run(1)
    assert 0 < len(_DIGEST_CACHE) <= _DIGEST_CACHE_LIMIT


def _channels():
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.0001))
    keystore = KeyStore()
    return [SecureChannel(net.endpoint(name), keystore) for name in ("a", "b")]


def test_an_envelope_record_dies_with_its_envelope():
    sender, receiver = _channels()
    message = Stop(regency=3)
    sealed = sender.seal(message, ("b",))
    assert receiver.open(sealed)[0] is message  # the record served the open
    alive = weakref.ref(message)
    del message, sealed
    gc.collect()
    assert alive() is None  # no table kept the message (or its payload)


def test_a_request_and_its_batch_die_once_decided():
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.0001))
    keystore = KeyStore()
    config = GroupConfig()
    replicas = build_group(sim, net, config, EchoService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    first = proxy.invoke_ordered(b"op")
    request = proxy._pending[0].request
    sim.run(until=sim.now + config.batch_wait / 4)  # delivered, not proposed
    assert all(r.pool.pending for r in replicas)  # verified, awaiting decision
    alive = weakref.ref(request)
    del request
    sim.run(until=sim.now + 1.0)
    assert first.ok and first.value == b"op"
    assert not any(r.pool.pending for r in replicas)  # decided: entries left
    # The executors' loop variables still name the batch they ran last;
    # the next decision replaces it.
    second = proxy.invoke_ordered(b"op2")
    sim.run(until=sim.now + 1.0)
    assert second.ok
    gc.collect()
    assert alive() is None  # nothing kept the request or its record


def test_the_groups_records_die_with_their_request_and_operation():
    """Replies and PushMessages are recorded on the request they belong
    to, the decoded operation on the request and each pushed message on
    its PushMessage; once the group has moved on nothing keeps them."""
    clear_hot_path_caches()
    sim = Simulator(seed=1)
    system = build_smartscada(sim, net=make_network(sim), config=SmartScadaConfig())
    system.frontend.add_item("rtu.a", initial=0)
    replica = system.replicas[0]
    service, channel = replica.service, replica.channel
    execute, send = service.execute, channel.send
    sent = {}

    def watch_execute(operation, ctx):
        sent.setdefault("operation", weakref.ref(replica.decoded(operation)))
        return execute(operation, ctx)

    def watch_send(dst, message):
        sent.setdefault(type(message).__name__, weakref.ref(message))
        if isinstance(message, PushMessage):
            sent.setdefault("pushed", weakref.ref(recorded(message, BODY, message.payload)))
        send(dst, message)

    system.start()
    sim.run(until=sim.now + 0.1)
    service.execute, channel.send = watch_execute, watch_send
    system.frontend.inject_update("rtu.a", 5)
    sim.run(until=sim.now + 0.1)
    service.execute, channel.send = execute, send
    assert {"Reply", "PushMessage", "pushed"} <= set(sent)
    for value in range(6, 10):  # the group moves on; last_reply is replaced
        system.frontend.inject_update("rtu.a", value)
        sim.run(until=sim.now + 0.05)
    gc.collect()
    assert {name: ref() for name, ref in sent.items()} == dict.fromkeys(sent)
    assert system.replicas[0].executed_cid > 0  # the deployment is still alive
