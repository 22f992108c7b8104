"""The caches are behaviour-invisible: four outputs match the legacy path's.

Every cache on the per-message path (codec memo, MAC templates and memo,
digest LRU, serialize-once broadcast, shared decode) must change no byte
on the wire, no event order and no result. That used to be shown by
running a switched-off copy of each path; the copy is gone, and what it
produced is recorded in ``tests/golden/outputs.json``:

(a) ``campaign`` — fingerprint and hop-trace digest of a chaos campaign;
(b) ``counter_trace_sha256`` — every observable of a replicated-counter run;
(c) ``bft_micro`` — throughput and replica counters of the §V-B firehose;
(d) ``encodings`` — the encoded bytes of a sample of every wire type.

``deployment`` pins what (a) never exercises — replicas provisioned after
deploy time. It was recorded before the classic and the sharded builder,
handle and spare-provisioning paths were folded into one: four campaigns
that rejuvenate, restart from a torn disk, heal-evict and kill two shard
leaders, and one live shard split that grows its target group.

``schedules`` pins the event kernel itself: the ``(when, priority, seq)``
dispatch log, decided stream, state digests and detection stream of three
seeded runs, recorded on the heap kernel and on the ring (equal, asserted
at record time) before the heap kernel was deleted.

``transfer`` pins the ways a decided entry reaches a replica's executor
besides live consensus — WAL replay after a restart, partial and full
state transfer. It was recorded before those paths were folded into one
replica method: the intact, corrupt, wiped and pipelined restart
campaigns with every replica's transfer and disk-recovery counters, and
one bare-library run whose crashed leader catches up by transfer.

``behaviours`` pins what each Byzantine behaviour does to a run: the
IDS drill of all five behaviours (fingerprint, detections, score), their
heal drills, and a bare-library group run under each protocol
behaviour. It was recorded from the untouched ``src/`` of the last
commit whose behaviours were ``ServiceReplica`` subclasses, before they
became :class:`repro.bftsmart.byzantine.Behaviour` values; its two
``lying`` rows moved once since, when every reply site got the hook, and
its three ``equivocating`` rows when a recovering replica learned to
adopt the live regency (``tests/golden/__init__.py`` says how, as it does
for the ``transfer`` and ``deployment`` entries that change moved). Every
SCADA row moved once more when the leader began to propose on arrival,
with the proxies' same-instant requests in one envelope, and every
timing-dependent row once more when the protocol messages stopped
naming their own sender (smaller frames); four leader-change rows moved
when followers began to forward, then suspect, a leader silent past
their measured PROPOSE turnaround; and every size-charged timing row
moved once more when the PROPOSE began to name its requests instead of
carrying them, and every row that counts or hashes the kernel's
dispatches when the executor stopped being a process fed by a channel.
The same file attributes each digest to its edit.

``roles`` pins the replica's four roles by what they do: the fetch
path under a withholding and a misdigesting leader, the silence rule
(``slow-leader`` at seeds 0-2) and a signed reconfiguration join. It was
recorded before ``ServiceReplica`` was split into pool, proposer,
acceptor and executor.

``neoscada`` pins the unreplicated Master's worker pool, the one place
left where the order of execution is not the order of arrival: what
reaches the HMI and when, the alarms and the event storage of a run with
four jittered workers. It was recorded while the workers still took their
messages from a ``Channel``.

A change that is *meant* to move one (a new wire type, a protocol change)
updates the file from the failing assertion's left side.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.bftsmart import (
    Administrator,
    CounterService,
    Equivocating,
    GroupConfig,
    Lying,
    Misdigesting,
    ServiceReplica,
    Silent,
    Stuttering,
    View,
    Withholding,
    build_group,
    build_proxy,
)
from repro.chaos import (
    get_scenario,
    run_campaign,
    run_heal_drill,
    run_scenario,
)
from repro.chaos.campaign import CampaignConfig
from repro.chaos.monitors import InvariantMonitor, default_monitors
from repro.crypto import KeyStore
from repro.neoscada import HandlerChain, Monitor
from repro.core import build_neoscada, build_smartscada, make_network
from repro.net import ConstantLatency, Drop, LanLatency, Network
from repro.perf import clear_hot_path_caches
from repro.core import ShardSplitter, ShardedScadaConfig, build_sharded_scada
from repro.sim import Simulator
from repro.wire import decode, encode
from repro.workloads.generators import UpdateWorkload
from repro.workloads.profiler import run_bft_micro
from tests.golden import GOLDEN
from tests.test_wire_codec_caching import _REGISTERED, _ids, sample_instance


def test_campaign_fingerprint_and_trace_digest():
    scenario = get_scenario("drop-write-value")
    config = scenario.config(CampaignConfig(seed=5, trace=True))
    report = run_campaign(scenario.schedule(), config)
    assert {
        "fingerprint": report.fingerprint(),
        "trace_digest": report.trace_digest,
    } == GOLDEN["campaign"]


def _replicated_counter_trace():
    """Run a small replicated-counter workload; return its full outcome.

    The returned tuple captures everything observable: per-request
    results in completion order, final replica states, the simulated
    clock and the kernel counters. If any optimisation reordered even
    one event, the dispatch counts and completion times would differ.
    """
    clear_hot_path_caches()
    sim = Simulator(seed=7)
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, request_timeout=0.5, sync_timeout=1.0)
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore)

    results = []

    def client():
        for _ in range(15):
            raw = yield proxy.invoke_ordered(encode(("add", 1)))
            results.append((sim.now, decode(raw)))
        return None

    sim.run_process(client(), until=60)
    return (
        tuple(results),
        tuple(r.service.value for r in replicas),
        tuple(sorted(replicas[0].stats.items())),
        sim.now,
        sim.dispatched,
    )


def test_optimizations_change_no_event_order():
    """Same seed, caches on: the outcome recorded with every cache off."""
    outcome = _replicated_counter_trace()
    assert (
        hashlib.sha256(repr(outcome).encode()).hexdigest()
        == GOLDEN["counter_trace_sha256"]
    )


def test_bft_micro_rate_and_replica_stats():
    (rate, replica_stats), _kernel = run_bft_micro(warmup=0.05, window=0.1)
    assert {"rate": rate, "replica_stats": replica_stats} == GOLDEN["bft_micro"]


def test_encoded_bytes_of_every_registered_type():
    digests = (
        hashlib.sha256(encode(sample_instance(cls, 5))).hexdigest()
        for _tid, cls in _REGISTERED
    )
    assert dict(zip(_ids(), digests)) == GOLDEN["encodings"]


@pytest.mark.parametrize("name", sorted(GOLDEN["deployment"]["campaigns"]))
def test_deployment_campaign(name):
    scenario = get_scenario(name)
    config = scenario.config(CampaignConfig(seed=3, trace=True))
    report = run_campaign(scenario.schedule(), config)
    outcome = {"fingerprint": report.fingerprint()}
    if config.heal:
        outcome["heal_actions"] = report.heal_actions
        outcome["evictions"] = report.evictions
    assert outcome == GOLDEN["deployment"]["campaigns"][name]


def _live_split():
    """The ``python -m repro shards --shards 2 --split`` run, as data."""
    sim = Simulator(seed=3)
    system = build_sharded_scada(sim, config=ShardedScadaConfig(shards=2))
    items = [f"plant.sensor-{i}" for i in range(8)]
    for item in items:
        system.frontend.add_item(item, initial=20)
        system.attach_handlers(item, lambda: HandlerChain([Monitor(high=80.0)]))
    system.start()
    reports = []

    def scenario():
        for i, item in enumerate(items):
            system.frontend.inject_update(item, 90 if i % 2 == 0 else 30)
            yield sim.timeout(0.02)
        yield sim.timeout(0.5)
        moved = [it for it in items if system.shard_of(it) != 1][:2]
        reports.append(
            (yield from ShardSplitter(system).split(moved, 1, grow_target=True))
        )
        for i, item in enumerate(items):
            system.frontend.inject_update(item, 30 if i % 2 == 0 else 95)
            yield sim.timeout(0.02)
        yield sim.timeout(2.0)

    sim.run_process(scenario(), until=60)
    system.flush_events()
    return {
        "report": reports[0].as_dict(),
        "state_digests": [
            [d.hex() for d in system.state_digests(shard)] for shard in range(2)
        ],
        "events_dispatched": sim.stats()["events_dispatched"],
        "alarm_ids": [alarm.event_id for alarm in system.hmi.alarms()],
    }


def test_live_split_that_grows_the_target_group():
    assert _live_split() == GOLDEN["deployment"]["split"]


def _schedule_sha256(log) -> str:
    return hashlib.sha256(repr(log).encode()).hexdigest()


def _decided_stream(replica):
    return [
        f"{request.client_id}#{request.sequence}"
        for _cid, value, _timestamp in replica.decision_log
        if value != b""
        for request in decode(value).requests
    ]


def _transfer_counters(replica) -> dict:
    transfer = replica.state_transfer
    recovered = replica.recovered_from_disk
    return {
        "state_transfer": {
            name: getattr(transfer, name)
            for name in (
                "completed", "full_installs", "partial_installs", "bytes_installed"
            )
        },
        "recovered_from_disk": (
            None
            if recovered is None
            else [recovered.checkpoint_cid, len(recovered.entries), recovered.damaged]
        ),
    }


class _TransferCensus(InvariantMonitor):
    """Reads every current incarnation's counters at quiesce."""

    def finish(self, ctx) -> None:
        self.replicas = {
            pm.replica.address: _transfer_counters(pm.replica)
            for pm in ctx.system.proxy_masters
        }


def _restart_campaign(name: str) -> dict:
    scenario = get_scenario(name)
    census = _TransferCensus()
    report = run_campaign(
        scenario.schedule(),
        scenario.config(CampaignConfig(seed=3, trace=True)),
        monitors=default_monitors() + [census],
    )
    return {"fingerprint": report.fingerprint(), "replicas": census.replicas}


@pytest.mark.parametrize("name", sorted(GOLDEN["transfer"]["campaigns"]))
def test_restart_campaign_and_transfer_counters(name):
    assert _restart_campaign(name) == GOLDEN["transfer"]["campaigns"][name]


def _leader_crash_caught_up_by_transfer() -> dict:
    """A bare group whose leader dies under traffic and returns behind."""
    sim = Simulator(seed=11)
    log = sim._schedule_log = []
    net = Network(sim, latency=LanLatency(rng=sim.rng.stream("net")))
    keystore = KeyStore()
    config = GroupConfig(
        n=4, f=1, checkpoint_interval=6, request_timeout=0.5, sync_timeout=1.0
    )
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore, invoke_timeout=0.3)

    def client(count):
        for _ in range(count):
            yield proxy.invoke_ordered(encode(("add", 1)))

    sim.run_process(client(4), until=sim.now + 30)
    net.crash("replica-0")
    sim.run_process(client(12), until=sim.now + 30)
    net.recover("replica-0")
    sim.run_process(client(6), until=sim.now + 30)
    sim.run(until=sim.now + 3)
    streams = [_decided_stream(replica) for replica in replicas]
    return {
        "schedule_sha256": _schedule_sha256(log),
        "dispatched": sim.dispatched,
        "now": sim.now,
        "decided_streams": streams,
        "last_decided": [replica.last_decided for replica in replicas],
        "state_digests": [
            hashlib.sha256(replica.service.snapshot()).hexdigest()
            for replica in replicas
        ],
        "leader": _transfer_counters(replicas[0]),
    }


def test_leader_crash_caught_up_by_transfer():
    assert _leader_crash_caught_up_by_transfer() == GOLDEN["transfer"]["leader_crash"]


def test_bft_schedule_and_decided_stream():
    sim = Simulator(seed=7)
    log = sim._schedule_log = []
    net = Network(sim, latency=LanLatency(rng=sim.rng.stream("net")))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, batch_max=8, batch_wait=0.0005)
    replicas = build_group(sim, net, config, CounterService, keystore)

    def sender(proxy):
        for _ in range(20):
            proxy.invoke_ordered(encode(("add", 1)))
            yield sim.timeout(0.002)

    for i in range(2):
        proxy = build_proxy(
            sim, net, f"client-{i}", config, keystore, invoke_timeout=30.0
        )
        sim.process(sender(proxy))
    sim.run(until=sim.now + 10)
    streams = [_decided_stream(replica) for replica in replicas]
    assert all(stream == streams[0] for stream in streams)
    assert {
        "schedule_sha256": _schedule_sha256(log),
        "dispatched": sim.dispatched,
        "now": sim.now,
        "decided_stream": streams[0],
        "service_values": [replica.service.value for replica in replicas],
    } == GOLDEN["schedules"]["bft"]


def test_scada_schedule_and_state_digests():
    sim = Simulator(seed=5)
    log = sim._schedule_log = []
    system = build_smartscada(sim)
    system.frontend.add_item("plant.temperature", initial=20)
    system.frontend.add_item("plant.valve", initial=0, writable=True)
    system.start()
    writes = []

    def scenario():
        for i in range(10):
            system.frontend.inject_update("plant.temperature", 20 + i)
            yield sim.timeout(0.05)
        result = yield system.hmi.write("plant.valve", 1)
        writes.append(result.success)
        yield sim.timeout(0.5)
        return True

    sim.run_process(scenario(), until=30)
    assert {
        "schedule_sha256": _schedule_sha256(log),
        "dispatched": sim.dispatched,
        "now": sim.now,
        "state_digests": [digest.hex() for digest in system.state_digests()],
        "writes": writes,
    } == GOLDEN["schedules"]["scada"]


def test_ids_campaign_detection_stream():
    """Intrusion detection is part of the determinism contract: a seeded
    compromise yields the recorded detections (times, kinds, scores,
    evidence) — one, naming replica-2, with no false positive."""
    report = run_scenario("ids-falsifying", seed=3, ids=True)
    assert {
        "fingerprint": report.fingerprint(),
        "detections": [dataclasses.asdict(d) for d in report.detections],
        "ids_score": report.ids_score,
    } == GOLDEN["schedules"]["ids_campaign"]


#: ``name -> (replica index, behaviour)`` of the bare-library runs.
_PROTOCOL_BEHAVIOURS = {
    "equivocating": (0, Equivocating()),
    "lying": (2, Lying()),
    "silent": (1, Silent()),
    "stuttering": (3, Stuttering()),
}


def _as_json(value):
    return json.loads(json.dumps(value))


@pytest.mark.parametrize("name", sorted(GOLDEN["behaviours"]["ids_drills"]))
def test_behaviour_ids_drill(name):
    report = run_scenario(f"ids-{name}", seed=3, ids=True)
    assert _as_json({
        "fingerprint": report.fingerprint(),
        "detections": [dataclasses.asdict(d) for d in report.detections],
        "ids_score": report.ids_score,
    }) == GOLDEN["behaviours"]["ids_drills"][name]


@pytest.mark.parametrize("name", sorted(GOLDEN["behaviours"]["heal_drills"]))
def test_behaviour_heal_drill(name):
    drill = run_heal_drill(name, 3)
    drill["violations"] = [dataclasses.asdict(v) for v in drill["violations"]]
    assert _as_json(drill) == GOLDEN["behaviours"]["heal_drills"][name]


def _bare_group_under(name: str) -> dict:
    """Two clients' 40 adds through a group with one Byzantine member."""
    index, behaviour = _PROTOCOL_BEHAVIOURS[name]
    sim = Simulator(seed=7)
    log = sim._schedule_log = []
    net = Network(sim, latency=LanLatency(rng=sim.rng.stream("net")))
    keystore = KeyStore()
    config = GroupConfig(
        n=4, f=1, batch_max=8, batch_wait=0.0005, request_timeout=0.5, sync_timeout=1.0
    )
    replicas = build_group(sim, net, config, CounterService, keystore)
    replicas[index].behaviour = behaviour
    completed = []

    def sender(proxy):
        for _ in range(20):
            event = proxy.invoke_ordered(encode(("add", 1)))
            event.callbacks.append(lambda _event: completed.append(sim.now))
            yield sim.timeout(0.002)

    for i in range(2):
        proxy = build_proxy(sim, net, f"client-{i}", config, keystore, invoke_timeout=1.0)
        sim.process(sender(proxy))
    sim.run(until=sim.now + 10)
    return {
        "schedule_sha256": _schedule_sha256(log),
        "dispatched": sim.dispatched,
        "now": sim.now,
        "completed": len(completed),
        "decided_streams": [_decided_stream(replica) for replica in replicas],
        "service_values": [replica.service.value for replica in replicas],
    }


@pytest.mark.parametrize("name", sorted(_PROTOCOL_BEHAVIOURS))
def test_bare_group_under_behaviour(name):
    assert _bare_group_under(name) == GOLDEN["behaviours"]["bare_group"][name]


def _replica_counters(replica) -> dict:
    return {
        **replica.stats,
        "fetches": replica.fetches,
        "regency": replica.regency,
        "last_decided": replica.last_decided,
        "executed_cid": replica.executed_cid,
        "view_id": replica.view.view_id,
        "active": replica.active,
    }


def _bare_group_fetch_path(behaviour) -> dict:
    """The withholding/misdigesting leader drills of the fetch path: a
    client whose first multicast skips two followers, then nine more."""
    sim = Simulator(seed=1)
    log = sim._schedule_log = []
    net = Network(sim, latency=ConstantLatency(0.0003))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, request_timeout=0.5, sync_timeout=1.0, batch_wait=0.0)
    replicas = build_group(sim, net, config, CounterService, keystore)
    replicas[0].behaviour = behaviour
    proxy = build_proxy(sim, net, "client-1", config, keystore, invoke_timeout=0.3)
    for dst in ("replica-2", "replica-3"):
        net.faults.add(Drop(src=proxy.client_id, dst=dst, max_count=1))

    def client():
        for _ in range(10):
            yield proxy.invoke_ordered(encode(("add", 1)))

    sim.run_process(client(), until=sim.now + 20)
    sim.run(until=sim.now + 2)
    return {
        "schedule_sha256": _schedule_sha256(log),
        "dispatched": sim.dispatched,
        "now": sim.now,
        "decided_streams": [_decided_stream(replica) for replica in replicas],
        "replicas": [_replica_counters(replica) for replica in replicas],
    }


class _RoleCensus(InvariantMonitor):
    """Logs the campaign's schedule and reads every replica at quiesce."""

    def start(self, ctx) -> None:
        self.log = ctx.sim._schedule_log = []

    def finish(self, ctx) -> None:
        self.replicas = {
            pm.replica.address: {
                "decided_stream": _decided_stream(pm.replica),
                "counters": _replica_counters(pm.replica),
            }
            for pm in ctx.system.proxy_masters
        }


def _slow_leader_campaign(seed: int) -> dict:
    scenario = get_scenario("slow-leader")
    census = _RoleCensus()
    report = run_campaign(
        scenario.schedule(),
        scenario.config(seed=seed),
        monitors=default_monitors() + [census],
    )
    return {
        "fingerprint": report.fingerprint(),
        "schedule_sha256": _schedule_sha256(census.log),
        "replicas": census.replicas,
    }


def _signed_reconfiguration_join() -> dict:
    """An administrator's signed join of a fifth replica, under traffic."""
    sim = Simulator(seed=4)
    log = sim._schedule_log = []
    net = Network(sim, latency=LanLatency(rng=sim.rng.stream("net")))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, checkpoint_interval=8)
    replicas = build_group(sim, net, config, CounterService, keystore)
    proxy = build_proxy(sim, net, "client-1", config, keystore, invoke_timeout=0.5)
    admin = Administrator(build_proxy(sim, net, "admin-c", config, keystore), keystore)

    def client(count):
        for _ in range(count):
            yield proxy.invoke_ordered(encode(("add", 1)))

    sim.run_process(client(5), until=sim.now + 10)
    event = admin.reconfigure(join=("replica-4",))
    replicas.append(
        ServiceReplica(
            sim, net, "replica-4", config, CounterService(), keystore,
            view=View(1, config.addresses + ("replica-4",), 1),
        )
    )
    replicas[-1].state_transfer.bootstrap()
    sim.run(until=sim.now + 5, stop_on=event)
    proxy.view = admin.proxy.view
    sim.run_process(client(12), until=sim.now + 10)
    sim.run(until=sim.now + 2)
    return {
        "schedule_sha256": _schedule_sha256(log),
        "dispatched": sim.dispatched,
        "now": sim.now,
        "joined": event.ok,
        "decided_streams": [_decided_stream(replica) for replica in replicas],
        "service_values": [replica.service.value for replica in replicas],
        "replicas": [_replica_counters(replica) for replica in replicas],
    }


def _roles_case(name: str) -> dict:
    if name in ("withholding", "misdigesting"):
        behaviour = Withholding() if name == "withholding" else Misdigesting()
        return _as_json(_bare_group_fetch_path(behaviour))
    if name.startswith("slow-leader-"):
        return _as_json(_slow_leader_campaign(int(name.rsplit("-", 1)[1])))
    return _as_json(_signed_reconfiguration_join())


@pytest.mark.parametrize("name", sorted(GOLDEN["roles"]))
def test_replica_roles_case(name):
    assert _roles_case(name) == GOLDEN["roles"][name]


def _neoscada_worker_pool() -> dict:
    """The unreplicated Master's four jittered workers under Fig 8(a) load.

    Updates at 400/s over five items, half of them above a ``Monitor``
    threshold, with two HMI writes in the middle of the traffic: what
    reaches the HMI, and when, is decided by which worker takes which
    message and how long its jittered processing takes.
    """
    sim = Simulator(seed=3)
    log = sim._schedule_log = []
    system = build_neoscada(sim, net=make_network(sim), workers=4, jitter=0.2)
    item_ids = [f"rtu.sensor.{i}" for i in range(5)]
    for item_id in item_ids:
        system.frontend.add_item(item_id, initial=0)
        system.attach_handlers(item_id, lambda: HandlerChain([Monitor(high=500.0)]))
    system.frontend.add_item("rtu.actuator", initial=0, writable=True)
    system.start()
    completions = []
    system.hmi.on_value_change = lambda item_id, value: completions.append(
        (sim.now, item_id, value.value)
    )
    workload = UpdateWorkload(
        sim, system.frontend, item_ids, rate=400.0, alarm_ratio=0.5,
        normal_value=100, alarm_value=900,
    )
    workload.start(duration=0.5)
    writes = []

    def operator():
        for value in (1, 2):
            yield sim.timeout(0.15)
            result = yield system.hmi.write("rtu.actuator", value)
            writes.append([result.success, result.reason])

    sim.run_process(operator(), until=30)
    sim.run(until=sim.now + 0.5)
    return _as_json({
        "completions_sha256": hashlib.sha256(repr(completions).encode()).hexdigest(),
        "completions": len(completions),
        "hmi_values": sorted(
            [item_id, value.value, value.quality.name, value.timestamp]
            for item_id, value in system.hmi.values.items()
        ),
        "alarm_ids": [event.event_id for event in system.hmi.alarms()],
        "storage_sha256": hashlib.sha256(
            repr(system.master.storage.to_tuple()).encode()
        ).hexdigest(),
        "stored": system.master.storage.total_written,
        "writes": writes,
        "now": sim.now,
        "schedule_sha256": _schedule_sha256(log),
        "dispatched": sim.dispatched,
    })


def test_neoscada_worker_pool():
    assert _neoscada_worker_pool() == GOLDEN["neoscada"]
