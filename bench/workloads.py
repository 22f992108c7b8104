"""The six workloads: inputs from the seed, one deployment per step, outputs kept.

Every workload builds a fresh deployment, generates its inputs here from
``--seed`` (item choice, values, which updates alarm, payload bytes) and
drives the program only through ``frontend.inject_update``,
``hmi.write`` and ``proxy.invoke_ordered``. A *step* is one deployment
run at one offered rate: ``ref`` (below capacity — where latency is
read) and ``sat`` (above capacity — where throughput is read); a
workload with one step uses it for both.

Two clocks: everything in :class:`StepResult` named ``sim_*`` or read
off ``sim.now`` is simulated time and repeats bit for bit for a seed;
``cpu_s`` / ``wall_s`` are host time over the step's steady window only
(warm-up and drain are outside it), with the calibration spins of
:mod:`hostclock` beside them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from hostclock import HostMeter

from repro.bftsmart import EchoService, GroupConfig, build_group, build_proxy
from repro.core import SmartScadaConfig
from repro.core.recovery import restart_replica
from repro.core.system import build_neoscada, build_smartscada, make_network
from repro.crypto import KeyStore, digest
from repro.neoscada.handlers.chain import HandlerChain
from repro.neoscada.handlers.monitor import Monitor
from repro.obs import install_tracer
from repro.perf import PERF, clear_hot_path_caches
from repro.shard import ShardedScadaConfig, build_sharded_scada
from repro.sim import Simulator

#: Monitor threshold of the alarm workloads (the paper's Fig 8(b) set-up).
ALARM_THRESHOLD = 500
#: Simulated seconds a step may take to deliver what is still queued
#: when its traffic ends, before the rest counts as lost.
DRAIN_CAP_S = 5.0
#: After the drain: long enough for every in-flight message to land, so
#: ``net.sent - net.delivered`` counts drops and nothing else.
SETTLE_S = 0.05

#: name -> parameters. ``why`` is the reason the workload exists (also in
#: BENCHMARK.json); the rest is the parameter table every result carries.
WORKLOADS: dict = {
    "update": {
        "why": (
            "Fig 8(a) headline path: ordering, the serial single-entry Master "
            "and f+1 push voting all busy; capacity is set by Master execution"
        ),
        "driver": "open",
        "system": "smartscada",
        "items": 20,
        "monitor": False,
        "alarm_ratio": 0.0,
        "steps": {"ref": 800.0, "sat": 1200.0},
        "warmup_s": 0.5,
        "window_s": 2.0,
        "config": {"sat": {"invoke_timeout": 30.0}},
        "baseline": True,
    },
    "alarm": {
        "why": (
            "Fig 8(b): every update also raises an AE event, so the handler "
            "chain, the synchronous Storage writer and EventUpdate pushes dominate"
        ),
        "driver": "open",
        "system": "smartscada",
        "items": 20,
        "monitor": True,
        "alarm_ratio": 1.0,
        "steps": {"ref": 500.0, "sat": 1000.0},
        "warmup_s": 0.5,
        "window_s": 2.0,
        "config": {"sat": {"invoke_timeout": 30.0}},
        "baseline": True,
    },
    "write": {
        "why": (
            "Fig 8(c): closed loop of synchronous writes, latency-bound; each op "
            "pays full consensus round trips and batching cannot help"
        ),
        "driver": "write",
        "system": "smartscada",
        "steps": {"run": 0.0},
        "warmup_s": 0.5,
        "window_s": 12.0,
        "baseline": True,
    },
    "bft-micro": {
        "why": (
            "bare BFT library, 1 KiB echo at 25k req/s: codec, MAC, kernel and "
            "network do the work and no SCADA layer runs at all"
        ),
        "driver": "bft",
        "steps": {"run": 25_000.0},
        "warmup_s": 0.2,
        "window_s": 0.4,
        "payload_bytes": 1024,
        "batch_max": 500,
        "batch_wait": 0.001,
        "invoke_timeout": 5.0,
    },
    "shard2": {
        "why": (
            "two BFT groups on one event loop behind one namespace: router "
            "cache, global AE merge, and whether the loop or crypto bounds a fleet"
        ),
        "driver": "open",
        "system": "sharded",
        "shards": 2,
        "items": 16,
        "monitor": True,
        "alarm_ratio": 0.1,
        "steps": {"sat": 2400.0},
        "warmup_s": 0.5,
        "window_s": 1.5,
        "config": {"sat": {"invoke_timeout": 30.0}},
    },
    "failover": {
        "why": (
            "leader killed under scheduled traffic, disk crash, restart from WAL: "
            "leader change, recovery and partial state transfer run nowhere else"
        ),
        "driver": "open",
        "system": "smartscada",
        "items": 20,
        "monitor": False,
        "alarm_ratio": 0.0,
        "steps": {"run": 400.0},
        "warmup_s": 0.0,
        "window_s": 6.0,
        "config": {
            "run": {
                "durability": True,
                "request_timeout": 1.0,
                "sync_timeout": 2.0,
                "invoke_timeout": 0.5,
            }
        },
        "kill_leader_at_s": 2.0,
        "restart_at_s": 4.0,
    },
}


@dataclass
class StepResult:
    """Everything one step produced; plain data, no program objects."""

    step: str
    attempted: int
    completed: int
    #: failure kind -> count (lost, duplicated, out_of_order, refused).
    failures: dict
    #: Ops completed per simulated second inside the steady window.
    sim_ops_per_s: float
    #: Simulated latency (ms) of every op due inside the steady window.
    sim_latencies_ms: list
    #: Longest simulated gap between consecutive completions.
    sim_max_gap_s: float
    window_sim_s: float
    #: Host time inside the steady window, raw, and the calibration
    #: spins run between its slices (see :mod:`hostclock`).
    cpu_s: float
    wall_s: float
    spin_cpu_s: float
    spins: int
    events: int
    #: sha256 over every (completion instant, op) pair: equal digests
    #: mean two runs behaved identically in simulated time.
    outputs_digest: str
    #: One digest per group: the set of live replicas' state digests.
    state_digests: list
    #: Program counters over the traffic phase (flat name -> number).
    counters: dict = field(default_factory=dict)
    #: Simulated-time phase name -> [count, total seconds] (traced pass).
    phases: dict = field(default_factory=dict)
    gen_late_s: float = 0.0
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------


def _item_ids(spec: dict, system) -> list:
    if spec["system"] != "sharded":
        return [f"rtu.sensor.{i}" for i in range(spec["items"])]
    # Balance the namespace exactly: the same number of items per group,
    # picked from a candidate pool by the deployment's own shard map.
    per_shard = spec["items"] // spec["shards"]
    owned: dict = {shard: [] for shard in range(spec["shards"])}
    chosen = []
    for i in range(50 * spec["items"]):
        item = f"bench.item-{i}"
        shard = system.shard_of(item)
        if len(owned[shard]) < per_shard:
            owned[shard].append(item)
            chosen.append(item)
    if len(chosen) != spec["items"]:
        raise RuntimeError("candidate pool too small to balance the shards")
    return chosen


def build_scada(spec: dict, step: str, seed: int, system_kind: str | None = None):
    """Build and start one SCADA deployment; returns ``(sim, system, items)``."""
    kind = system_kind if system_kind is not None else spec["system"]
    sim = Simulator(seed=seed)
    overrides = spec.get("config", {}).get(step, {})
    if kind == "neoscada":
        system = build_neoscada(sim, net=make_network(sim))
    elif kind == "sharded":
        system = build_sharded_scada(
            sim,
            net=make_network(sim),
            config=ShardedScadaConfig(
                shards=spec["shards"], base=SmartScadaConfig(**overrides)
            ),
        )
    else:
        system = build_smartscada(
            sim, net=make_network(sim), config=SmartScadaConfig(**overrides)
        )
    items = _item_ids(spec, system) if spec["driver"] == "open" else []
    for item_id in items:
        system.frontend.add_item(item_id, initial=0)
        if spec["monitor"]:
            system.attach_handlers(
                item_id, lambda: HandlerChain([Monitor(high=ALARM_THRESHOLD)])
            )
    if spec["driver"] == "write":
        system.frontend.add_item("rtu.actuator", initial=0, writable=True)
    system.start()
    return sim, system, items


def build_bft(spec: dict, seed: int):
    """The bare replication library with an echo service and one client."""
    sim = Simulator(seed=seed)
    net = make_network(sim)
    keystore = KeyStore()
    config = GroupConfig(
        n=4, f=1, batch_max=spec["batch_max"], batch_wait=spec["batch_wait"]
    )
    replicas = build_group(sim, net, config, EchoService, keystore)
    proxy = build_proxy(
        sim, net, "load-client", config, keystore, invoke_timeout=spec["invoke_timeout"]
    )
    return sim, replicas, proxy


def build(name: str, seed: int) -> None:
    """Build (and start) the deployment of the workload's last step.

    This is what ``setup_s`` times, next to the imports.
    """
    spec = WORKLOADS[name]
    if spec["driver"] == "bft":
        build_bft(spec, seed)
    else:
        build_scada(spec, list(spec["steps"])[-1], seed)


# ---------------------------------------------------------------------------
# program counters (read, never written)
# ---------------------------------------------------------------------------


class _Members:
    """The replicas, Master cores and BFT clients of a deployment, by group.

    A restarted replica replaces its ProxyMaster in the deployment handle;
    the old incarnation's counters must stay in the sums, so members are
    only ever added.
    """

    def __init__(self, replicas=(), clients=()) -> None:
        #: group id -> replicas / Master cores of that group.
        self.replicas: dict = {0: list(replicas)} if replicas else {}
        self.masters: dict = {}
        self.clients = list(clients)
        self.timeouts: list = []

    @classmethod
    def of_scada(cls, system) -> "_Members":
        members = cls()
        for pm in getattr(system, "proxy_masters", ()):
            members.add_incarnation(pm)
        for proxy in getattr(system, "proxy_frontends", ()):
            members.clients.extend(proxy.bft_clients)
        if hasattr(system, "proxy_hmi"):
            members.clients.extend(system.proxy_hmi.bft_clients)
        return members

    def add_incarnation(self, proxy_master) -> None:
        self.replicas.setdefault(proxy_master.shard, []).append(proxy_master.replica)
        self.masters.setdefault(proxy_master.shard, []).append(proxy_master.master)
        self.clients.append(proxy_master.vote_client)
        self.timeouts.append(proxy_master.timeouts)

    def all_replicas(self) -> list:
        return [r for group in self.replicas.values() for r in group]

    def per_group(self, members: dict, stat: str) -> list:
        """One value per group: the furthest any member got on ``stat``.

        Replicas of a group execute the same stream, so the furthest one
        is the group's count (a killed replica simply stopped early).
        """
        return [
            max(member.stats[stat] for member in group)
            for _shard, group in sorted(members.items())
        ]


def read_counters(sim, members: _Members) -> dict:
    """Flat snapshot of the counters the program already exposes."""
    stats = sim.stats()
    out = {
        "sim.events": stats["events_dispatched"],
        "sim.timers_cancelled": stats["timers_cancelled"],
        "sim.tombstones_skipped": stats["tombstones_skipped"],
        "net.sent": stats["net"]["sent"],
        "net.delivered": stats["net"]["delivered"],
    }
    for cache, counts in PERF.stats_map().items():
        out[f"perf.{cache}.hits"] = counts["hits"]
        out[f"perf.{cache}.misses"] = counts["misses"]
    replicas = members.all_replicas()
    out["bft.decided"] = sum(members.per_group(members.replicas, "decided"))
    out["bft.executed"] = sum(members.per_group(members.replicas, "executed"))
    out["bft.pushes"] = sum(r.stats["pushes"] for r in replicas)
    out["bft.rejected_requests"] = sum(r.stats["rejected_requests"] for r in replicas)
    out["bft.leader_changes"] = max(
        (r.synchronizer.changes_completed for r in replicas), default=0
    )
    out["bft.retransmissions"] = sum(c.stats["retransmissions"] for c in members.clients)
    out["bft.pushes_delivered"] = sum(c.pushes.delivered_count for c in members.clients)
    out["master.events"] = sum(members.per_group(members.masters, "events"))
    out["core.logical_timeouts"] = sum(t.stats["synthesized"] for t in members.timeouts)
    for disk in stats.get("storage", {}).values():
        for key in ("fsyncs", "appends", "bytes_written", "busy_time"):
            out[f"storage.{key}"] = out.get(f"storage.{key}", 0) + disk[key]
    router = stats.get("shard.router")
    if router is not None:
        out["shard.router_hits"] = router["hits"]
        out["shard.router_misses"] = router["misses"]
        out["shard.merge_late"] = stats["shard.merge"]["late"]
    return out


def read_gauges(sim, members: _Members) -> dict:
    """Values that are levels, not running totals (read at the end)."""
    stats = sim.stats()
    replicas = members.all_replicas()
    samples = sum(r.stats["pipeline_occupancy_samples"] for r in replicas)
    occupancy = sum(r.stats["pipeline_occupancy_sum"] for r in replicas)
    return {
        "sim.heap_peak": stats["heap_peak"],
        "bft.pipeline_occupancy_mean": occupancy / samples if samples else 0.0,
    }


def _delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _phase_totals(tracer) -> dict:
    """Simulated-time span name -> [closed spans, total seconds]."""
    totals: dict = {}
    for span in tracer.spans:
        if span.end is None:
            continue
        entry = totals.setdefault(span.name, [0, 0.0])
        entry[0] += 1
        entry[1] += span.end - span.start
    return totals


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def _max_gap(instants: list, start: float, end: float) -> float:
    """Longest gap between consecutive completions inside ``[start, end]``.

    The window edges count as completions, so a window that ends in
    silence reports that silence.
    """
    previous = start
    longest = 0.0
    for instant in instants:
        if instant < start:
            continue
        if instant > end:
            break
        longest = max(longest, instant - previous)
        previous = instant
    return max(longest, end - previous)


def _outputs_digest(instants: list, ops: list) -> str:
    sha = hashlib.sha256()
    for instant, op in zip(instants, ops):
        sha.update(f"{instant!r}:{op};".encode())
    return sha.hexdigest()


def _state_digests(system) -> list:
    """Per group: the sorted distinct state digests of its live replicas."""
    if hasattr(system, "shards"):
        groups = [system.state_digests(shard) for shard in range(system.shards)]
    elif hasattr(system, "state_digests"):
        groups = [system.state_digests()]
    else:
        return []
    return [sorted({d.hex() for d in group}) for group in groups]


def _plain_advance(sim):
    return lambda until: sim.run(until=until)


def _drain(sim, advance, finished, deadline: float) -> None:
    while not finished() and sim.now < deadline:
        advance(min(sim.now + 0.1, deadline))
    advance(sim.now + SETTLE_S)


def _measure_traffic(sim, members, advance, layer_tracer, w0, w1, finished) -> dict:
    """Warm up to ``w0``, measure ``[w0, w1]``, drain until ``finished()``.

    Returns the :class:`StepResult` fields every driver fills the same
    way: host time over the window, counter deltas and simulated-time
    phases over the whole traffic phase. The layer wrappers record only
    during that phase, not during build or checks.
    """
    if layer_tracer is not None:
        layer_tracer.active = True
    before = read_counters(sim, members)
    advance(w0)
    meter = HostMeter(sim, advance)
    meter.measure(w0, w1)
    _drain(sim, advance, finished, w1 + DRAIN_CAP_S)
    if layer_tracer is not None:
        layer_tracer.active = False
    counters = _delta(read_counters(sim, members), before)
    counters.update(read_gauges(sim, members))
    return {
        "cpu_s": meter.cpu_s,
        "wall_s": meter.wall_s,
        "spin_cpu_s": meter.spin_cpu_s,
        "spins": meter.spins,
        "events": meter.events,
        "counters": counters,
        "phases": _phase_totals(sim.tracer) if sim.tracer is not None else {},
    }


# ---------------------------------------------------------------------------
# open loop at the Frontend (update, alarm, shard2, failover)
# ---------------------------------------------------------------------------


def _encode_value(op: int, alarm: bool) -> int:
    """The injected raw value carries the op index, so deliveries can be
    matched to injections: alarms sit above the threshold, the rest below
    zero."""
    return ALARM_THRESHOLD + 1 + op if alarm else -1 - op


def _decode_value(raw: int) -> int:
    return raw - ALARM_THRESHOLD - 1 if raw > ALARM_THRESHOLD else -1 - raw


def _item_choices(rng: random.Random, system, items: list, count: int) -> list:
    """Index into ``items`` for every op: seeded, and balanced across groups.

    A sharded deployment is offered its rate *per group*: ops alternate
    between the groups and the seed picks the item inside the group, so
    every group sees exactly the same load whatever the seed.
    """
    shards = getattr(system, "shards", 1)
    if shards == 1:
        return [rng.randrange(len(items)) for _ in range(count)]
    owned: dict = {shard: [] for shard in range(shards)}
    for index, item in enumerate(items):
        owned[system.shard_of(item)].append(index)
    return [rng.choice(owned[op % shards]) for op in range(count)]


def _alarm_flags(rng: random.Random, count: int, ratio: float) -> list:
    """Exactly ``round(ratio * count)`` alarms, at seeded positions."""
    flags = [True] * round(ratio * count) + [False] * (count - round(ratio * count))
    rng.shuffle(flags)
    return flags


def run_open_step(
    name: str,
    step: str,
    seed: int,
    scale: float = 1.0,
    layer_tracer=None,
    sim_tracing: bool = False,
    system_kind: str | None = None,
) -> StepResult:
    spec = WORKLOADS[name]
    rate = spec["steps"][step]
    warmup, window = spec["warmup_s"] * scale, spec["window_s"] * scale
    sim, system, items = build_scada(spec, step, seed, system_kind)
    if sim_tracing:
        install_tracer(sim)
    members = _Members.of_scada(system)

    warm_ops = round(rate * warmup)
    total = warm_ops + round(rate * window)
    rng = random.Random(f"{seed}:{name}:{step}")
    item_of = _item_choices(rng, system, items, total)
    values = [
        _encode_value(op, alarm)
        for op, alarm in enumerate(_alarm_flags(rng, total, spec["alarm_ratio"]))
    ]
    t0 = sim.now
    due = [t0 + (op + 1) / rate for op in range(total)]

    done_at: list = []
    done_op: list = []

    def on_value(item_id, value) -> None:
        done_at.append(sim.now)
        done_op.append((item_id, value.value))

    system.hmi.on_value_change = on_value
    late = [0.0]

    def generator():
        inject = system.frontend.inject_update
        for op in range(total):
            yield sim.timeout(max(due[op] - sim.now, 0.0))
            if sim.now - due[op] > late[0]:
                late[0] = sim.now - due[op]
            inject(items[item_of[op]], values[op])

    fault = None
    if "kill_leader_at_s" in spec:
        fault = _LeaderCrash(spec, scale, sim, system, members, t0)
    sim.process(generator(), name="bench-open-loop")
    w0, w1 = t0 + warmup, t0 + warmup + window
    measured = _measure_traffic(
        sim,
        members,
        fault.advance if fault is not None else _plain_advance(sim),
        layer_tracer,
        w0,
        w1,
        lambda: len(done_op) >= total and (fault is None or fault.rejoined),
    )
    extra: dict = fault.report() if fault is not None else {}

    # Match deliveries to injections.
    failures = {"lost": 0, "duplicated": 0, "out_of_order": 0, "refused": 0}
    seen = [0] * total
    last_of_item: dict = {}
    completed_at = [None] * total
    for instant, (item_id, raw) in zip(done_at, done_op):
        op = _decode_value(raw)
        if not 0 <= op < total or items[item_of[op]] != item_id:
            failures["refused"] += 1  # a value nobody injected
            continue
        seen[op] += 1
        if seen[op] > 1:
            failures["duplicated"] += 1
            continue
        if op < last_of_item.get(item_id, -1):
            failures["out_of_order"] += 1
        last_of_item[item_id] = max(op, last_of_item.get(item_id, -1))
        completed_at[op] = instant
    failures["lost"] = seen.count(0)

    in_window = sum(1 for instant in done_at if w0 <= instant <= w1)
    latencies = [
        (completed_at[op] - due[op]) * 1e3
        for op in range(warm_ops, total)
        if completed_at[op] is not None
    ]
    if hasattr(system, "proxy_hmi") and system.proxy_hmi.merger is not None:
        extra.update(_global_ae_order(system.proxy_hmi.merger))
    extra["group_updates"] = members.per_group(members.masters, "updates")
    return StepResult(
        step=step,
        attempted=total,
        completed=total - failures["lost"],
        failures=failures,
        sim_ops_per_s=in_window / window,
        sim_latencies_ms=latencies,
        sim_max_gap_s=_max_gap(done_at, w0, w1),
        window_sim_s=window,
        outputs_digest=_outputs_digest(done_at, done_op),
        state_digests=_state_digests(system),
        gen_late_s=late[0],
        extra=extra,
        **measured,
    )


class _LeaderCrash:
    """The fault schedule: kill the leader, crash its disk, restart it.

    ``advance(t)`` moves the simulation to ``t`` and applies whatever the
    schedule has due on the way, so traffic keeps coming due on time while
    no leader exists. After the restart it advances in small steps until
    the new incarnation has caught up with its peers, which is how
    ``rejoin_s`` is observed without putting a bench event into the
    simulated schedule; the step is the resolution of ``rejoin_s``.
    """

    REJOIN_STEP_S = 0.005

    def __init__(self, spec, scale, sim, system, members, t0) -> None:
        self.sim = sim
        self.system = system
        self.members = members
        self.kill_at = t0 + spec["kill_leader_at_s"] * scale
        self.restart_at = t0 + spec["restart_at_s"] * scale
        self.victim = None
        self.fresh = None
        self.rejoined_at = None

    @property
    def rejoined(self) -> bool:
        return self.rejoined_at is not None

    def advance(self, until: float) -> None:
        sim = self.sim
        if self.victim is None and until >= self.kill_at:
            sim.run(until=self.kill_at)
            self._kill_leader()
        if self.fresh is None and until >= self.restart_at:
            sim.run(until=self.restart_at)
            self.fresh = restart_replica(self.system, self.victim, disk_fault=None)
            self.members.add_incarnation(self.fresh)
        while self.fresh is not None and not self.rejoined and sim.now < until:
            sim.run(until=min(sim.now + self.REJOIN_STEP_S, until))
            if self._caught_up():
                self.rejoined_at = sim.now
        sim.run(until=until)

    def _kill_leader(self) -> None:
        pms = self.system.proxy_masters
        self.victim = next(i for i, pm in enumerate(pms) if pm.replica.is_leader)
        pms[self.victim].replica.halt()
        self.system.durable_storage[self.victim].crash("intact")

    def _caught_up(self) -> bool:
        frontier = max(
            pm.replica.last_decided
            for pm in self.system.proxy_masters
            if pm is not self.fresh and pm.replica.active
        )
        return self.fresh.replica.last_decided >= frontier

    def report(self) -> dict:
        if self.fresh is None:
            return {}
        recovered = self.fresh.replica.recovered_from_disk
        return {
            "rejoin_s": (
                self.rejoined_at - self.restart_at if self.rejoined else float("inf")
            ),
            "transfer_bytes": self.fresh.replica.state_transfer.bytes_installed,
            "wal_entries_replayed": len(recovered.entries) if recovered else 0,
        }


def _global_ae_order(merger) -> dict:
    """The released global AE sequence, and how far from sorted it is.

    The merger never reorders what it already released, so an event that
    arrives after a greater key went out is released at once and counted
    ``late``. The released sequence must therefore be sorted by (logical
    timestamp, shard, per-shard seq) except for exactly those events.
    """
    keys = []
    seq_of_shard: dict = {}
    for _global_seq, shard, event in merger.released:
        # Events of one shard are released in the order they were offered,
        # so counting them reproduces the merger's per-shard sequence.
        seq = seq_of_shard.get(shard, 0)
        seq_of_shard[shard] = seq + 1
        keys.append((event.timestamp, shard, seq))
    inversions = 0
    greatest = None
    for key in keys:
        if greatest is not None and key < greatest:
            inversions += 1
        else:
            greatest = key
    return {
        "ae_released": len(keys),
        "ae_inversions": inversions,
        "ae_late": merger.stats["late"],
        "ae_digest": hashlib.sha256(repr(keys).encode()).hexdigest(),
    }


# ---------------------------------------------------------------------------
# closed loop of synchronous writes (write)
# ---------------------------------------------------------------------------


def run_write_step(
    name: str,
    step: str,
    seed: int,
    scale: float = 1.0,
    layer_tracer=None,
    sim_tracing: bool = False,
    system_kind: str | None = None,
) -> StepResult:
    spec = WORKLOADS[name]
    warmup, window = spec["warmup_s"] * scale, spec["window_s"] * scale
    sim, system, _items = build_scada(spec, step, seed, system_kind)
    if sim_tracing:
        install_tracer(sim)
    members = _Members.of_scada(system)
    rng = random.Random(f"{seed}:{name}:{step}")
    t0 = sim.now
    w0, w1 = t0 + warmup, t0 + warmup + window

    started: list = []
    done_at: list = []
    done_op: list = []
    written: list = []

    def writer():
        previous = 0
        while sim.now < w1:
            value = rng.randrange(1, 1 << 16)
            if value == previous:
                value += 1  # every write is a real change
            previous = value
            started.append(sim.now)
            written.append(value)
            result = yield system.hmi.write("rtu.actuator", value)
            done_at.append(sim.now)
            done_op.append(bool(result.success))

    loop = sim.process(writer(), name="bench-closed-loop")
    measured = _measure_traffic(
        sim, members, _plain_advance(sim), layer_tracer, w0, w1, lambda: loop.processed
    )

    attempted = len(started)
    failures = {
        "lost": attempted - len(done_op),
        "duplicated": 0,
        "out_of_order": 0,
        "refused": done_op.count(False),
    }
    final = system.frontend.items.get("rtu.actuator").value.value
    if done_op and len(done_op) == attempted and final != written[-1]:
        failures["lost"] += 1  # acknowledged, but the field never saw it
    in_window = [i for i, instant in enumerate(done_at) if w0 <= instant <= w1]
    return StepResult(
        step=step,
        attempted=attempted,
        completed=done_op.count(True),
        failures=failures,
        sim_ops_per_s=len(in_window) / window,
        sim_latencies_ms=[(done_at[i] - started[i]) * 1e3 for i in in_window],
        sim_max_gap_s=_max_gap(done_at, w0, w1),
        window_sim_s=window,
        outputs_digest=_outputs_digest(done_at, written),
        state_digests=_state_digests(system),
        **measured,
    )


# ---------------------------------------------------------------------------
# open loop against the bare library (bft-micro)
# ---------------------------------------------------------------------------


def run_bft_step(
    name: str,
    step: str,
    seed: int,
    scale: float = 1.0,
    layer_tracer=None,
    sim_tracing: bool = False,
) -> StepResult:
    spec = WORKLOADS[name]
    rate = spec["steps"][step]
    warmup, window = spec["warmup_s"] * scale, spec["window_s"] * scale
    sim, replicas, proxy = build_bft(spec, seed)
    if sim_tracing:
        install_tracer(sim)
    members = _Members(replicas, [proxy])

    warm_ops = round(rate * warmup)
    total = warm_ops + round(rate * window)
    rng = random.Random(f"{seed}:{name}:{step}")
    filler = spec["payload_bytes"] - 8
    # Distinct payloads: a digest or decode cache keyed by content must
    # not get a hit rate no real request stream would give it.
    payloads = [op.to_bytes(8, "big") + rng.randbytes(filler) for op in range(total)]
    t0 = sim.now
    due = [t0 + (op + 1) / rate for op in range(total)]

    done_at: list = []
    done_op: list = []
    echoed = [0] * total
    refused = [0]

    def on_reply(event, op) -> None:
        if not event.ok:
            event.defused = True
            refused[0] += 1
            return
        done_at.append(sim.now)
        done_op.append(op)
        if event.value == payloads[op]:
            echoed[op] += 1
        else:
            refused[0] += 1

    late = [0.0]

    def generator():
        invoke = proxy.invoke_ordered
        for op in range(total):
            yield sim.timeout(max(due[op] - sim.now, 0.0))
            if sim.now - due[op] > late[0]:
                late[0] = sim.now - due[op]
            invoke(payloads[op]).add_callback(lambda event, op=op: on_reply(event, op))

    sim.process(generator(), name="bench-open-loop")
    w0, w1 = t0 + warmup, t0 + warmup + window
    measured = _measure_traffic(
        sim,
        members,
        _plain_advance(sim),
        layer_tracer,
        w0,
        w1,
        lambda: len(done_op) + refused[0] >= total,
    )

    completed_at = [None] * total
    for instant, op in zip(done_at, done_op):
        completed_at[op] = instant
    failures = {
        "lost": sum(1 for op in range(total) if completed_at[op] is None) - refused[0],
        "duplicated": sum(1 for count in echoed if count > 1),
        "out_of_order": 0,
        "refused": refused[0],
    }
    state = sorted({digest(r.service.snapshot()).hex() for r in replicas if r.active})
    return StepResult(
        step=step,
        attempted=total,
        completed=sum(1 for count in echoed if count),
        failures=failures,
        sim_ops_per_s=sum(1 for t in done_at if w0 <= t <= w1) / window,
        sim_latencies_ms=[
            (completed_at[op] - due[op]) * 1e3
            for op in range(warm_ops, total)
            if completed_at[op] is not None
        ],
        sim_max_gap_s=_max_gap(done_at, w0, w1),
        window_sim_s=window,
        outputs_digest=_outputs_digest(done_at, done_op),
        state_digests=[state],
        gen_late_s=late[0],
        **measured,
    )


DRIVERS = {"open": run_open_step, "write": run_write_step, "bft": run_bft_step}


def run_pass(
    name: str,
    seed: int,
    scale: float = 1.0,
    layer_tracer=None,
    sim_tracing: bool = False,
) -> dict:
    """Run every step of one workload once; returns ``step -> StepResult``."""
    # Process-global memo tables would otherwise carry hits from one pass
    # into the next: every pass starts as cold as a fresh process.
    clear_hot_path_caches()
    spec = WORKLOADS[name]
    driver = DRIVERS[spec["driver"]]
    return {
        step: driver(name, step, seed, scale, layer_tracer, sim_tracing)
        for step in spec["steps"]
    }


def run_baseline(name: str, seed: int, scale: float = 1.0) -> dict:
    """The same steps on unreplicated NeoSCADA (the single-node baseline)."""
    spec = WORKLOADS[name]
    if not spec.get("baseline"):
        return {}
    driver = DRIVERS[spec["driver"]]
    return {
        step: driver(name, step, seed, scale, system_kind="neoscada")
        for step in spec["steps"]
    }
