"""Integration tests: the full replication stack on the simulated network."""

import pytest

from repro.bftsmart import (
    Administrator,
    CounterService,
    Behaviour,
    EchoService,
    Equivocating,
    GroupConfig,
    KeyValueService,
    Lying,
    ServiceReplica,
    Silent,
    Stuttering,
    View,
    build_group,
    build_proxy,
)
from repro.crypto import KeyStore
from repro.net import ConstantLatency, Drop, Network, Tamper
from repro.sim import Simulator
from repro.wire import decode, encode


def make_world(seed=1, n=4, f=1, **config_kwargs):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(
        n=n,
        f=f,
        request_timeout=config_kwargs.pop("request_timeout", 0.5),
        sync_timeout=config_kwargs.pop("sync_timeout", 1.0),
        **config_kwargs,
    )
    return sim, net, keystore, config


def run_adds(sim, proxy, count, amount=1):
    def client():
        result = None
        for _ in range(count):
            raw = yield proxy.invoke_ordered(encode(("add", amount)))
            result = decode(raw)
        return result

    return sim.run_process(client(), until=sim.now + 120)


def test_ordered_requests_reach_all_replicas():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    assert run_adds(sim, proxy, 10) == 10
    assert [r.service.value for r in replicas] == [10, 10, 10, 10]


def test_tampered_envelopes_are_counted_at_replicas():
    """A link that replaces envelopes shows up in ``rejected_envelopes``.

    The replica used to drop a payload that was not a ``Sealed`` before
    its channel could count it, so a tampering link was invisible in the
    counter the intrusion detector reads; the client side always counted.
    """
    sim, net, keystore, config = make_world()
    build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    net.faults.add(Tamper(lambda payload: b"junk", dst="replica-1"))
    assert run_adds(sim, proxy, 5) == 5  # the other three keep serving
    assert sim.stats()["replica.replica-1"]["rejected_envelopes"] > 0


def test_replies_need_f_plus_1_matching():
    sim, net, keystore, config = make_world()
    build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    run_adds(sim, proxy, 1)
    # At least f+1 replicas answered identically (vote satisfied).
    assert proxy.stats["invocations"] == 1
    assert proxy.stats["failures"] == 0


def test_unordered_read_skips_consensus():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    run_adds(sim, proxy, 3)
    decided_before = replicas[0].stats["decided"]

    def reader():
        raw = yield proxy.invoke_unordered(encode(("get", None)))
        return decode(raw)

    assert sim.run_process(reader(), until=sim.now + 60) == 3
    assert replicas[0].stats["decided"] == decided_before


def test_batching_packs_concurrent_requests():
    sim, net, keystore, config = make_world(batch_max=100, batch_wait=0.005)
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)

    def burst():
        events = [proxy.invoke_ordered(encode(("add", 1))) for _ in range(50)]
        results = []
        for event in events:
            results.append((yield event))
        return results

    sim.run_process(burst(), until=sim.now + 60)
    # 50 requests decided in far fewer consensus instances than 50.
    assert replicas[0].stats["decided"] < 10
    assert all(r.service.value == 50 for r in replicas)


def test_crashed_leader_is_replaced_and_service_continues():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    net.crash("replica-0")
    assert run_adds(sim, proxy, 5) == 5
    live = [r for r in replicas if r.address != "replica-0"]
    assert all(r.synchronizer.regency >= 1 for r in live)
    assert all(r.service.value == 5 for r in live)


def test_two_successive_leader_crashes():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    net.crash("replica-0")
    assert run_adds(sim, proxy, 3) == 3
    # Now the regency-1 leader (replica-1) crashes too; f=1 means the
    # group cannot tolerate two *simultaneous* faults, so bring 0 back.
    net.recover("replica-0")
    net.crash("replica-1")
    assert run_adds(sim, proxy, 3) == 6


def test_silent_replica_does_not_block_progress():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, CounterService, keystore)
    replicas[1].behaviour = Silent()
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    assert run_adds(sim, proxy, 10) == 10
    honest = [r for r in replicas if r.behaviour is None]
    assert all(r.service.value == 10 for r in honest)


def test_lying_replica_is_outvoted():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, CounterService, keystore)
    replicas[2].behaviour = Lying()
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    # Results are still the honest ones, every time.
    assert run_adds(sim, proxy, 10) == 10


def test_equivocating_leader_is_deposed():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, CounterService, keystore)
    replicas[0].behaviour = Equivocating()
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    assert run_adds(sim, proxy, 5) == 5
    honest = replicas[1:]
    assert all(r.synchronizer.regency >= 1 for r in honest)


def test_stuttering_replica_starves_nobody():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, CounterService, keystore)
    replicas[3].behaviour = Stuttering()
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    assert run_adds(sim, proxy, 5) == 5


def test_forged_request_signature_rejected():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    # Mallory has a different deployment secret.
    mallory_ks = KeyStore(b"mallory")
    mallory = build_proxy(sim, net, "mallory", config, mallory_ks)
    event = mallory.invoke_ordered(encode(("add", 1_000_000)))
    event.defused = True
    sim.run(until=2.0)
    assert all(r.service.value == 0 for r in replicas)
    # MAC failures happen at channel open; forged *requests* are counted
    # when the channel key matches but the signature does not.
    assert all(
        r.channel.rejected > 0 or r.stats["rejected_requests"] > 0 for r in replicas
    )
    event2 = proxy.invoke_ordered(encode(("add", 1)))
    sim.run(until=5.0)
    assert decode(event2.value) == 1


def test_client_retransmission_survives_message_loss():
    sim, net, keystore, config = make_world()
    build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore, invoke_timeout=0.2)
    # Lose the first copy of every client request to every replica once.
    net.faults.add(Drop(kind="ClientRequest", max_count=4))
    assert run_adds(sim, proxy, 3) == 3
    assert proxy.stats["retransmissions"] >= 1


def test_retransmission_reuses_memoized_encoding():
    """Re-sending a request must hit the encode memo, not re-serialize.

    The proxy keeps the signed :class:`ClientRequest` object for the
    lifetime of the invocation, so every retransmission re-seals the same
    object — the per-object encode memo turns those into cache hits
    (the historical global LRU evicted them first: 0 hits per run).
    """
    from repro.perf import PERF, clear_hot_path_caches

    sim, net, keystore, config = make_world()
    build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore, invoke_timeout=0.2)
    net.faults.add(Drop(kind="ClientRequest", max_count=4))
    clear_hot_path_caches()
    stats = PERF.stats["codec_encode"]
    assert run_adds(sim, proxy, 3) == 3
    assert proxy.stats["retransmissions"] >= 1
    assert stats.hits > 0
    total = stats.hits + stats.misses
    assert stats.hits / total > 0.0  # the cache is no longer dead


def test_duplicate_requests_execute_once():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore, invoke_timeout=0.05)
    # Slow quorum formation forces retransmissions; the counter must not
    # double-count.
    assert run_adds(sim, proxy, 5) == 5
    sim.run(until=sim.now + 2)
    assert all(r.service.value == 5 for r in replicas)


def test_state_transfer_catches_up_crashed_replica():
    sim, net, keystore, config = make_world(checkpoint_interval=10)
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    net.crash("replica-3")
    run_adds(sim, proxy, 25)
    net.recover("replica-3")
    run_adds(sim, proxy, 5)
    sim.run(until=sim.now + 3)
    assert [r.service.value for r in replicas] == [30, 30, 30, 30]
    assert replicas[3].state_transfer.completed >= 1


def test_kv_service_replicates_dictionary_state():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, KeyValueService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)

    def client():
        yield proxy.invoke_ordered(encode(("put", "voltage", 230)))
        yield proxy.invoke_ordered(encode(("put", "current", 10)))
        yield proxy.invoke_ordered(encode(("delete", "current")))
        raw = yield proxy.invoke_ordered(encode(("get", "voltage")))
        return decode(raw)

    assert sim.run_process(client(), until=sim.now + 60) == ("ok", 230)
    assert all(r.service.data == {"voltage": 230} for r in replicas)


def test_replicas_reject_bad_operations_deterministically():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, KeyValueService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)

    def client():
        raw = yield proxy.invoke_ordered(encode(("explode", 1)))
        return decode(raw)

    status, message = sim.run_process(client(), until=sim.now + 60)
    assert status == "error"
    assert "explode" in message
    assert all(r.stats["executed"] == 1 for r in replicas)


def test_push_messages_delivered_after_f_plus_1_votes():
    class PushingService(EchoService):
        def execute(self, operation, ctx):
            self.push("client-1", "alerts", ctx.order_key, b"alarm:" + operation)
            return super().execute(operation, ctx)

    sim, net, keystore, config = make_world()
    build_group(sim, net, config, PushingService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    received = []
    proxy.pushes.set_handler(
        "alerts", lambda push: received.append((push.order, push.payload))
    )

    def client():
        yield proxy.invoke_ordered(b"overvoltage")
        yield proxy.invoke_ordered(b"overheat")

    sim.run_process(client(), until=sim.now + 60)
    sim.run(until=sim.now + 1)
    assert [payload for _order, payload in received] == [
        b"alarm:overvoltage",
        b"alarm:overheat",
    ]
    # Exactly once despite 4 replicas pushing 4 copies.
    assert proxy.pushes.delivered_count == 2


def test_push_voting_rejects_minority_forgery():
    class PushingService(EchoService):
        def execute(self, operation, ctx):
            self.push("client-1", "alerts", ctx.order_key, b"genuine")
            return super().execute(operation, ctx)

    class Forging(Behaviour):
        def on_push(self, replica, client_id, stream, order, payload):
            return b"forged"

    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, PushingService, keystore)
    replicas[0].behaviour = Forging()
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    received = []
    proxy.pushes.set_handler("alerts", lambda push: received.append(push.payload))

    def client():
        yield proxy.invoke_ordered(b"x")

    sim.run_process(client(), until=sim.now + 60)
    sim.run(until=sim.now + 1)
    assert received == [b"genuine"]


def test_reconfiguration_add_and_remove_replica():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "admin-client", config, keystore)
    admin = Administrator(proxy, keystore)

    def scenario():
        for _ in range(3):
            yield proxy.invoke_ordered(encode(("add", 1)))
        event = admin.reconfigure(join=("replica-4",), leave=("replica-1",))
        new_view = View(1, ("replica-0", "replica-2", "replica-3", "replica-4"), 1)
        joiner = ServiceReplica(
            sim, net, "replica-4", config, CounterService(), keystore, view=new_view
        )
        replicas.append(joiner)
        raw = yield event
        assert decode(raw) == ("ok", 1)
        result = None
        for _ in range(5):
            raw = yield proxy.invoke_ordered(encode(("add", 1)))
            result = decode(raw)
        return result

    assert sim.run_process(scenario(), until=sim.now + 60) == 8
    sim.run(until=sim.now + 3)
    removed = replicas[1]
    joiner = replicas[-1]
    assert not removed.active
    assert joiner.active
    assert joiner.service.value == 8
    assert all(r.view.view_id == 1 for r in replicas if r.active)


def test_the_instance_after_a_join_runs_under_the_new_membership():
    # Proposing on arrival, the leader has a request in its pool the
    # moment the join decides. Proposed before the join is executed, that
    # PROPOSE would go to the old members only, and the new view (five
    # members, quorum four, one of them down) could not decide it without
    # the joiner until a leader change.
    sim, net, keystore, config = make_world(batch_wait=0.0, pipeline_depth=1)
    replicas = build_group(sim, net, config, CounterService, keystore)
    net.crash("replica-3")
    admin_proxy = build_proxy(sim, net, "admin-client", config, keystore)
    admin = Administrator(admin_proxy, keystore)
    client = build_proxy(sim, net, "client-1", config, keystore)

    def scenario():
        event = admin.reconfigure(join=("replica-4",))
        new_view = View(1, config.addresses + ("replica-4",), 1)
        replicas.append(
            ServiceReplica(
                sim, net, "replica-4", config, CounterService(), keystore, view=new_view
            )
        )
        yield sim.timeout(0.0005)  # lands while the join is being ordered
        added = client.invoke_ordered(encode(("add", 1)))
        assert decode((yield event)) == ("ok", 1)
        return decode((yield added)), sim.now

    result, done_at = sim.run_process(scenario(), until=sim.now + 60)
    assert result == 1
    assert done_at < config.request_timeout / 4
    assert [r.synchronizer.changes_completed for r in replicas] == [0] * 5
    assert replicas[-1].service.value == 1


def test_unauthorized_reconfiguration_rejected():
    sim, net, keystore, config = make_world()
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "evil-client", config, keystore)
    # The attacker signs with its own identity rather than "admin".
    from repro.bftsmart import RECONFIG_MARKER, ReconfigRequest
    from repro.crypto import Signer

    payload = encode(("evil-client", (), ("replica-0",), 1))
    forged = ReconfigRequest(
        admin="evil-client",
        join=(),
        leave=("replica-0",),
        new_f=1,
        signature=Signer("evil-client", keystore).sign(payload).tag,
    )

    def attack():
        raw = yield proxy.invoke_ordered(RECONFIG_MARKER + encode(forged))
        return decode(raw)

    status, _reason = sim.run_process(attack(), until=sim.now + 60)
    assert status == "error"
    assert all(r.view.view_id == 0 for r in replicas)
    assert all(r.active for r in replicas)


def test_checkpoints_truncate_decision_log():
    sim, net, keystore, config = make_world(checkpoint_interval=5, batch_wait=0.0)
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)
    run_adds(sim, proxy, 17)
    sim.run(until=sim.now + 1)
    for replica in replicas:
        assert replica.stats["checkpoints"] >= 2
        assert all(cid > replica.checkpoint_cid for cid, _v, _t in replica.decision_log)


def test_deterministic_replay_same_seed():
    def run(seed):
        sim, net, keystore, config = make_world(seed=seed)
        replicas = build_group(sim, net, config, CounterService, keystore)
        proxy = build_proxy(sim, net, "client-1", config, keystore)
        run_adds(sim, proxy, 10)
        return (sim.now, [r.stats["decided"] for r in replicas])

    assert run(5) == run(5)


def test_echo_service_snapshot_roundtrip():
    service = EchoService()
    service.execute(b"one", None)
    service.execute(b"two", None)
    fresh = EchoService()
    fresh.install_snapshot(service.snapshot())
    assert fresh.executed == 2
