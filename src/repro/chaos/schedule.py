"""Fault actions, schedules, fault budgets and the seeded sampler.

A :class:`Schedule` is a list of time-stamped :class:`Action` objects
applied to a running :class:`~repro.core.system.SmartScadaSystem` (one
group or many — replica actions address machines by global index). Each
action knows how to ``apply`` itself at its start time and ``revert``
itself at its end time; actions with ``duration=None`` stay active until
the campaign's fault horizon, where the runner heals everything so the
liveness invariants can be measured from a known last-heal instant.

The **fault budget** counts *replica* faults — crashes, leader kills,
Byzantine swaps and rejuvenations — because those are what the ``n ≥
3f+1`` assumption is about. Network faults (partitions, message drops)
are deliberately outside the budget: BFT safety must hold under
arbitrary network behaviour, and campaigns are encouraged to pile them
on. A schedule whose replica faults ever overlap more than ``f`` deep is
rejected unless the campaign explicitly opts into overload — the point
of an overload campaign being to *watch the invariants catch it*.
"""

from __future__ import annotations

import random
import typing
from dataclasses import dataclass, field

from repro.bftsmart.byzantine import (
    Behaviour,
    Equivocating,
    Lying,
    Silent,
    Slow,
    Stuttering,
)
from repro.bftsmart.config import replica_address
from repro.bftsmart.messages import ClientRequest, RequestBatch, Sealed
from repro.bftsmart.replica import signing_payload
from repro.core.recovery import rejuvenate_replica, restart_replica
from repro.crypto.mac import MAC_SIZE
from repro.neoscada.messages import ItemUpdate
from repro.neoscada.values import Quality
from repro.net.faults import Delay, Drop, Tamper
from repro.wire import GLOBAL_REGISTRY, DecodeError, decode, encode

if typing.TYPE_CHECKING:
    from repro.chaos.campaign import CampaignContext
    from repro.core.system import SmartScadaSystem

#: Offset a :class:`Falsifying` replica adds to numeric item values: far
#: outside any workload's range, so a forged reading that slips past the
#: proxies' f+1 vote is unambiguous in tests and chaos monitors.
FALSIFY_OFFSET = 1_000_000


class Falsifying(Behaviour):
    """Participates correctly but pushes forged ItemUpdates to clients.

    This is the attack the paper's f+1 push voting exists to stop: a
    compromised Master replica shows the operator a false view of the
    field. The forgery is deterministic (value + ``FALSIFY_OFFSET``), so
    two colluding falsifiers produce byte-identical forgeries. A
    falsifier is one vote however many copies it sends, since the voter
    counts each push under the sender of its authenticated envelope: with
    ``f=1`` a single falsifier never reaches the f+1 vote and the HMI is
    safe, while two of them (over budget) out-vote the honest replicas.
    It lives here, not beside the protocol-level behaviours in
    :mod:`repro.bftsmart.byzantine`, because forging a reading takes
    knowing the SCADA message it rides in.
    """

    def on_push(self, replica, client_id, stream, order, payload):
        try:
            message = decode(payload)
        except DecodeError:
            return payload
        value = message.value.value if isinstance(message, ItemUpdate) else None
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return payload
        forged = message.value.with_value(value + FALSIFY_OFFSET)
        return encode(ItemUpdate(item_id=message.item_id, value=forged))


#: Byzantine behaviours by name, for :class:`SwapByzantine` and the CLI.
BEHAVIOURS: dict[str, Behaviour | None] = {
    "silent": Silent(),
    "lying": Lying(),
    "falsifying": Falsifying(),
    "equivocating": Equivocating(),
    "stuttering": Stuttering(),
    "slow": Slow(),
    "honest": None,
}

#: Budget accounting window charged for one rejuvenation (the replica is
#: "faulty" while it state-transfers back in).
REJUVENATION_WINDOW = 1.0


class ChaosBudgetError(ValueError):
    """A schedule exceeds the ``f`` simultaneous replica-fault budget."""


def swap_replica_behaviour(
    system: "SmartScadaSystem",
    index: int,
    behaviour,
    handler_config=None,
):
    """Swap a live Master replica for a Byzantine behaviour at runtime.

    ``behaviour`` is a :data:`BEHAVIOURS` name or a :class:`Behaviour`;
    ``"honest"`` (or ``None``) swaps the replica back to a correct one.
    The swap rides the proactive recovery machinery — the old instance
    is halted, the replacement state-transfers in at the same address and
    takes the behaviour in the same simulated instant, before any event
    runs — so a behaviour models a *runtime compromise*.

    Returns the replacement ProxyMaster.
    """
    if isinstance(behaviour, str):
        try:
            behaviour = BEHAVIOURS[behaviour]
        except KeyError:
            raise ValueError(
                f"unknown behaviour {behaviour!r}; pick from "
                f"{sorted(BEHAVIOURS)}"
            ) from None
    replacement = rejuvenate_replica(system, index, handler_config=handler_config)
    replacement.replica.behaviour = behaviour
    return replacement


@dataclass
class Action:
    """Base fault action: applied at ``at``, reverted at ``end``.

    Subclasses define ``_apply``/``_revert`` against a campaign context.
    Runtime handles (installed rules, resolved targets) are stored as
    non-field attributes so ``repr(action)`` stays a valid constructor
    call — the shrinker's replay snippets are built from these reprs.
    """

    at: float = 0.0
    duration: float | None = None

    #: True when the action makes a replica faulty (counts toward budget).
    replica_fault = False

    def end(self, horizon: float) -> float:
        if self.duration is None:
            return horizon
        return min(self.at + self.duration, horizon)

    def fault_interval(self, horizon: float):
        """``(start, end, replicas)`` charged to the budget, or None."""
        if not self.replica_fault:
            return None
        return (self.at, self.end(horizon), 1)

    def apply(self, ctx: "CampaignContext") -> None:
        self._apply(ctx)

    def revert(self, ctx: "CampaignContext") -> None:
        self._revert(ctx)

    def _apply(self, ctx) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _revert(self, ctx) -> None:
        pass

    def fault_shard(self, n: int) -> int:
        """Which replica group this action's fault lands on.

        Indexed actions derive it from the flattened global index
        (shard ``k`` owns indices ``[k*n, (k+1)*n)``); actions that pick
        their victim at runtime (leader kills) carry a ``shard`` field.
        """
        index = getattr(self, "index", None)
        if index is not None:
            return index // n
        return getattr(self, "shard", 0)


def _machine_addresses(ctx, index: int) -> list:
    """Every endpoint hosted on replica machine ``index``.

    Resolved through the deployment (not recomputed from the index), so
    the same action works on sharded topologies where machine ``index``
    answers to a namespaced ``s<k>-replica-<i>`` address.
    """
    pms = ctx.system.proxy_masters
    if index < len(pms):
        address = pms[index].address
    else:
        address = replica_address(index)
    return [address, f"{address}-adapter"]


def _retired(ctx, index: int) -> bool:
    """Whether the group voted replica machine ``index`` out (heal eviction)."""
    system = ctx.system
    return system.proxy_masters[index].address in system.retired


def _crash_machine(ctx, index: int) -> list:
    """Take a replica machine fully down (inbound and outbound)."""
    rules = []
    for address in _machine_addresses(ctx, index):
        ctx.net.crash(address)
        # Endpoint ``down`` only swallows inbound traffic; a crashed
        # machine must also stop talking, so outbound is dropped too.
        rules.append(ctx.injector.add(Drop(src=address)))
    ctx.crashed.add(index)
    return rules


def _recover_machine(ctx, index: int, rules: list) -> None:
    for address in _machine_addresses(ctx, index):
        ctx.net.recover(address)
    for rule in rules:
        if rule in ctx.injector.rules:
            ctx.injector.remove(rule)
    ctx.crashed.discard(index)


@dataclass
class CrashReplica(Action):
    """Crash replica machine ``index`` (silent, both directions)."""

    index: int = 0
    replica_fault = True

    def _apply(self, ctx) -> None:
        self._rules = _crash_machine(ctx, self.index)

    def _revert(self, ctx) -> None:
        _recover_machine(ctx, self.index, getattr(self, "_rules", []))


@dataclass
class KillLeader(Action):
    """Crash whichever replica currently leads group ``shard``."""

    shard: int = 0
    replica_fault = True

    def _apply(self, ctx) -> None:
        self._index = ctx.current_leader_index(self.shard)
        self._rules = _crash_machine(ctx, self._index)

    def _revert(self, ctx) -> None:
        index = getattr(self, "_index", None)
        if index is not None:
            _recover_machine(ctx, index, getattr(self, "_rules", []))


@dataclass
class IsolateReplicas(Action):
    """Partition the given replica machines away from everything else."""

    indices: tuple = ()

    def _apply(self, ctx) -> None:
        isolated = []
        for index in self.indices:
            isolated.extend(_machine_addresses(ctx, index))
        rest = [a for a in ctx.all_addresses() if a not in isolated]
        self._rule = ctx.injector.partition([isolated, rest])

    def _revert(self, ctx) -> None:
        rule = getattr(self, "_rule", None)
        if rule is not None:
            ctx.injector.heal(rule)


@dataclass
class PartitionNet(Action):
    """Partition arbitrary groups (replica indices or raw addresses)."""

    groups: tuple = ()

    def _apply(self, ctx) -> None:
        resolved = []
        for group in self.groups:
            addresses = []
            for member in group:
                if isinstance(member, int):
                    addresses.extend(_machine_addresses(ctx, member))
                else:
                    addresses.append(member)
            resolved.append(addresses)
        self._rule = ctx.injector.partition(resolved)

    def _revert(self, ctx) -> None:
        rule = getattr(self, "_rule", None)
        if rule is not None:
            ctx.injector.heal(rule)


@dataclass
class SwapByzantine(Action):
    """Swap replica ``index`` for a Byzantine behaviour at runtime.

    With a ``duration``, the replica is swapped back to an honest
    (pristine, state-transferring) instance at the end — modelling a
    compromise contained within a rejuvenation window. Without one, the
    compromise is permanent (still within budget if ≤ f replicas).
    """

    index: int = 0
    behaviour: str = "silent"
    replica_fault = True

    def _apply(self, ctx) -> None:
        if _retired(ctx, self.index):
            # The group already voted this machine out; there is no
            # replica left at the address to compromise.
            return
        swap_replica_behaviour(
            ctx.system, self.index, self.behaviour, handler_config=ctx.handler_config
        )
        ctx.compromised.add(self.index)
        if self.behaviour != "honest":
            ctx.record_ground_truth(
                "byzantine",
                ctx.system.proxy_masters[self.index].address,
                behaviour=self.behaviour,
            )

    def _revert(self, ctx) -> None:
        # Evicted mid-episode, the attacker's machine was removed from the
        # membership: healing the fault must not boot an honest replica
        # at a retired address, but the episode still closes (the
        # compromise ended when the group cut it off).
        if not _retired(ctx, self.index):
            swap_replica_behaviour(
                ctx.system, self.index, None, handler_config=ctx.handler_config
            )
        ctx.compromised.discard(self.index)
        ctx.close_ground_truth(ctx.system.proxy_masters[self.index].address)

    def fault_interval(self, horizon: float):
        # A permanent swap stays charged until the end of the campaign.
        return (self.at, self.end(horizon), 1)


@dataclass
class DropKind(Action):
    """Drop a message class (``kind``) matching src/dst globs."""

    kind: str | None = None
    src: str | None = None
    dst: str | None = None
    probability: float = 1.0
    max_count: int | None = None

    def _apply(self, ctx) -> None:
        self._rule = ctx.injector.add(
            Drop(
                src=self.src,
                dst=self.dst,
                kind=self.kind,
                probability=self.probability,
                max_count=self.max_count,
            )
        )

    def _revert(self, ctx) -> None:
        rule = getattr(self, "_rule", None)
        if rule is not None and rule in ctx.injector.rules:
            ctx.injector.remove(rule)


@dataclass
class DelayKind(Action):
    """Add ``extra`` seconds of delay to a message class."""

    kind: str | None = None
    extra: float = 0.001
    src: str | None = None
    dst: str | None = None

    def _apply(self, ctx) -> None:
        self._rule = ctx.injector.add(
            Delay(self.extra, src=self.src, dst=self.dst, kind=self.kind)
        )

    def _revert(self, ctx) -> None:
        rule = getattr(self, "_rule", None)
        if rule is not None and rule in ctx.injector.rules:
            ctx.injector.remove(rule)


@dataclass
class FieldOffline(Action):
    """Take a Frontend (the field side: its RTUs/links) offline.

    Writes forwarded to it vanish, which is exactly the condition the
    §IV-D logical-timeout protocol exists for.
    """

    frontend: int = 0

    def _apply(self, ctx) -> None:
        address = f"frontend-{self.frontend}"
        ctx.net.crash(address)
        self._rule = ctx.injector.add(Drop(src=address))

    def _revert(self, ctx) -> None:
        address = f"frontend-{self.frontend}"
        ctx.net.recover(address)
        rule = getattr(self, "_rule", None)
        if rule is not None and rule in ctx.injector.rules:
            ctx.injector.remove(rule)


@dataclass
class InjectWrites(Action):
    """A command-injection-style write burst from the operator station.

    Models an attacker who has taken over (or replayed) the HMI session
    and floods operator writes far above the learned duty cycle — the
    injected-command scenario of the bump-in-the-wire IDS literature.
    The writes travel the legitimate replicated path, so no safety
    invariant trips (their values are entered into the campaign's legal
    ledger); only their *pattern* is anomalous, which is exactly what
    the ``write-burst`` detector keys on.
    """

    count: int = 24
    interval: float = 0.03
    item: str = "plant.actuator"

    def _apply(self, ctx) -> None:
        ctx.record_ground_truth(
            "write-burst",
            ctx.system.hmi.address,
            end=ctx.sim.now + self.count * self.interval,
        )

        def burst():
            for i in range(self.count):
                value = 800 + (i * 7) % 120
                ctx.legal_values.setdefault(self.item, set()).add(value)
                ctx.system.hmi.write(self.item, value)
                yield ctx.sim.timeout(self.interval)

        ctx.sim.process(burst(), name=f"inject-writes@{self.at:.2f}")


@dataclass
class SpoofFrontend(Action):
    """Inject forged client requests from a rogue network endpoint.

    The spoofer claims an existing client identity but holds no keys, so
    every replica's secure channel rejects the envelopes (and counts
    them). The flood is invisible to the protocol — spoofed traffic is
    dropped before dispatch — but the per-replica rejection counters
    climb in lockstep, the signature the ``spoofed-frontend`` detector
    watches through the metrics registry.
    """

    target: str = "proxy-hmi"
    count: int = 30
    interval: float = 0.03

    def _apply(self, ctx) -> None:
        ctx.record_ground_truth(
            "spoof",
            "*",
            end=ctx.sim.now + self.count * self.interval,
        )
        rogue = ctx.net.endpoint(f"spoofer-{self.target}")
        replicas = [pm.address for pm in ctx.system.proxy_masters]

        def flood():
            for i in range(self.count):
                forged = Sealed(
                    sender=self.target,
                    payload=b"forged-client-request-%d" % i,
                    tags={dst: b"\x00" * MAC_SIZE for dst in replicas},
                )
                for dst in replicas:
                    rogue.send(dst, forged, kind="ClientRequest")
                yield ctx.sim.timeout(self.interval)

        ctx.sim.process(flood(), name=f"spoof-frontend@{self.at:.2f}")


def _frontend_client(ctx):
    """The Frontend proxy's BFT client (group 0): the busiest client, and
    a field-side station an intruder may hold."""
    return ctx.system.proxy_frontends[0].bft_clients[0]


@dataclass
class ClientGarbage(Action):
    """A compromised client seals malformed frames under its own key.

    The MAC verifies, so only the codec stands between the frames and the
    replicas' handlers: each must cost one rejected envelope at every
    replica and nothing else. The IDS sees the rejections climb in
    lockstep, as for a spoofed Frontend.
    """

    count: int = 30
    interval: float = 0.03

    def _apply(self, ctx) -> None:
        ctx.record_ground_truth(
            "spoof", "*", end=ctx.sim.now + self.count * self.interval
        )
        channel = _frontend_client(ctx).channel
        replicas = [pm.address for pm in ctx.system.proxy_masters]
        # Frames that once escaped the codec with an exception other than
        # ``DecodeError``: a dict keyed by a list, the enum tag naming a
        # dataclass and the dataclass tag naming an enum.
        frames = (
            b"\x09\x01\x07\x00\x00",
            bytes([0x0B, GLOBAL_REGISTRY.id_of(ClientRequest), 0x00]),
            bytes([0x0A, GLOBAL_REGISTRY.id_of(Quality), 0x00]),
        )

        def flood():
            for i in range(self.count):
                payload = frames[i % len(frames)]
                for dst in replicas:
                    sealed = Sealed(
                        sender=channel.address,
                        payload=payload,
                        tags={dst: channel.auth.mac(dst, payload)},
                    )
                    channel.endpoint.send(dst, sealed, "ClientRequest")
                yield ctx.sim.timeout(self.interval)

        ctx.sim.process(flood(), name=f"client-garbage@{self.at:.2f}")


@dataclass
class PartialMulticast(Action):
    """A compromised client leaves the leader out of every multicast and
    retransmission: only the followers ever hold its requests.

    With a watchdog that suspects straight from its pending requests this
    is a leader change on one client's word; the followers must instead
    forward the requests and keep the leader.
    """

    def _apply(self, ctx) -> None:
        client = _frontend_client(ctx).client_id
        leader = ctx.system.proxy_masters[ctx.current_leader_index()]
        self._rule = ctx.injector.add(Drop(src=client, dst=leader.address))

    def _revert(self, ctx) -> None:
        rule = getattr(self, "_rule", None)
        if rule is not None and rule in ctx.injector.rules:
            ctx.injector.remove(rule)


@dataclass
class EquivocatingSequence(Action):
    """A compromised client signs two bodies under one sequence.

    Its next submission reaches the leader and the replica after it as
    sent (body A); the other two replicas get every request in it
    re-signed under the same ``(client_id, sequence)`` with another
    operation (body B). The followers holding B rebuild a value of
    another digest from the leader's PROPOSE and fetch its requests:
    exactly one body — the leader's — is decided, at the same regency.
    """

    def _apply(self, ctx) -> None:
        client = _frontend_client(ctx)
        addresses = [pm.address for pm in ctx.system.proxy_masters]
        leader = ctx.current_leader_index()
        a_side = {addresses[leader], addresses[(leader + 1) % len(addresses)]}

        def body_b(request: ClientRequest) -> ClientRequest:
            operation = b"\x00equivocated" + request.operation
            fields = (
                request.client_id,
                request.sequence,
                operation,
                request.reply_to,
                request.unordered,
            )
            tag = client.signer.sign(signing_payload(fields)).tag
            return ClientRequest(*fields, mac=tag)

        def re_sign(dst: str):
            def transform(sealed: Sealed) -> Sealed:
                message = decode(sealed.payload)
                if isinstance(message, RequestBatch):
                    message = RequestBatch(tuple(map(body_b, message.requests)))
                else:
                    message = body_b(message)
                return client.channel.seal(message, (dst,))

            return transform

        self._rules = [
            ctx.injector.add(
                Tamper(
                    re_sign(dst),
                    src=client.client_id,
                    dst=dst,
                    predicate=lambda envelope: envelope.kind
                    in ("ClientRequest", "RequestBatch"),
                    max_count=1,
                )
            )
            for dst in addresses
            if dst not in a_side
        ]

    def _revert(self, ctx) -> None:
        for rule in getattr(self, "_rules", ()):
            if rule in ctx.injector.rules:
                ctx.injector.remove(rule)


@dataclass
class Rejuvenate(Action):
    """Proactively recover replica ``index`` (instantaneous trigger)."""

    index: int = 0
    replica_fault = True

    def _apply(self, ctx) -> None:
        if _retired(ctx, self.index):
            return
        rejuvenate_replica(ctx.system, self.index, handler_config=ctx.handler_config)
        ctx.rejuvenations += 1

    def fault_interval(self, horizon: float):
        return (self.at, min(self.at + REJUVENATION_WINDOW, horizon), 1)


@dataclass
class CrashRestart(Action):
    """Power-cut replica ``index``; reboot it from its durable disk.

    Requires a durable campaign (``CampaignConfig(durability=True)``).
    At ``at`` the machine goes down and the ``disk`` crash fault model —
    ``intact`` / ``torn`` / ``corrupt`` / ``wiped`` (see
    :data:`repro.storage.CRASH_MODES`) — is applied to its device, the
    honest-crash-semantics moment. At the end of the window the machine
    reboots through :func:`repro.core.recovery.restart_replica`:
    checkpoint + WAL-tail recovery from disk, then a partial (log-tail)
    state transfer for the suffix — or the full-transfer fallback when
    the disk failed digest verification.
    """

    index: int = 0
    disk: str = "intact"
    replica_fault = True

    def _apply(self, ctx) -> None:
        self._rules = _crash_machine(ctx, self.index)
        old = ctx.system.proxy_masters[self.index]
        # The power cut: the process dies with the machine (a halted
        # replica with its storage detached can't write "post-mortem"
        # checkpoints), and the crash fault hits the device *now* — the
        # torn write is whatever was in flight at this instant.
        old.replica.halt()
        storage = old.replica.storage
        old.replica.storage = None
        if storage is not None:
            storage.crash(self.disk)

    def _revert(self, ctx) -> None:
        _recover_machine(ctx, self.index, getattr(self, "_rules", []))
        if _retired(ctx, self.index):
            # Rebooting hardware the group evicted brings the machine
            # back online but must not rejoin it to the replica group.
            return
        replacement = restart_replica(
            ctx.system,
            self.index,
            disk_fault=None,  # the fault already hit at crash time
            handler_config=ctx.handler_config,
        )
        ctx.restarts += 1
        ctx.restart_events.append(
            {
                "index": self.index,
                "disk": self.disk,
                "crashed_at": self.at,
                "restarted_at": ctx.sim.now,
                "settled_at": None,
                "proxy_master": replacement,
            }
        )

    def fault_interval(self, horizon: float):
        # Like a rejuvenation, the replica stays charged to the budget
        # for a recovery window after the reboot while it catches up.
        return (self.at, min(self.end(horizon) + REJUVENATION_WINDOW, horizon), 1)


@dataclass
class Schedule:
    """An ordered list of fault actions forming one campaign."""

    actions: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.actions = sorted(self.actions, key=lambda a: a.at)

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self):
        return iter(self.actions)

    def max_simultaneous_replica_faults(
        self, horizon: float, shard: int | None = None, n: int = 4
    ) -> int:
        """Peak depth of overlapping replica-fault windows.

        With ``shard`` set, only faults landing on that group count —
        each group tolerates ``f`` faults *independently*, which is the
        whole point of sharding the fault budget.
        """
        edges = []
        for action in self.actions:
            interval = action.fault_interval(horizon)
            if interval is None:
                continue
            if shard is not None and action.fault_shard(n) != shard:
                continue
            start, end, count = interval
            edges.append((start, 1, count))
            edges.append((end, 0, -count))
        # Sort by time; at equal times process the end (-count) first so
        # back-to-back faults on the same replica don't double-count.
        edges.sort()
        depth = peak = 0
        for _time, _order, delta in edges:
            depth += delta
            peak = max(peak, depth)
        return peak

    def validate_budget(
        self,
        f: int,
        horizon: float,
        allow_overload: bool = False,
        n: int = 4,
        shards: int = 1,
    ) -> None:
        if allow_overload:
            return
        if shards <= 1:
            peak = self.max_simultaneous_replica_faults(horizon)
            if peak > f:
                raise ChaosBudgetError(
                    f"schedule has up to {peak} simultaneous replica faults, "
                    f"budget is f={f}; pass allow_overload=True to run an "
                    f"over-budget campaign on purpose"
                )
            return
        # Sharded: each group carries its own f budget. Killing one
        # leader in every group at the same instant is in budget; two
        # simultaneous faults inside one group (f=1) is not.
        for shard in range(shards):
            peak = self.max_simultaneous_replica_faults(horizon, shard=shard, n=n)
            if peak > f:
                raise ChaosBudgetError(
                    f"schedule has up to {peak} simultaneous replica faults "
                    f"on shard {shard}, per-group budget is f={f}; pass "
                    f"allow_overload=True to run an over-budget campaign "
                    f"on purpose"
                )

    def describe(self) -> str:
        lines = []
        for action in self.actions:
            lines.append(f"  t={action.at:6.2f}s  {action!r}")
        return "\n".join(lines) if lines else "  (empty schedule)"


# ---------------------------------------------------------------------------
# seeded random campaigns
# ---------------------------------------------------------------------------

def sample_schedule(
    seed: int,
    *,
    horizon: float = 6.0,
    n: int = 4,
    f: int = 1,
    max_actions: int = 5,
    allow_overload: bool = False,
) -> Schedule:
    """Sample a schedule within the fault budget, deterministically.

    The same ``seed`` always yields the same schedule (the sampler uses
    its own :class:`random.Random`, untangled from the simulation's RNG
    streams). Candidate actions that would push the replica-fault overlap
    past ``f`` are discarded, so every sampled schedule is in budget
    unless ``allow_overload`` asks otherwise.
    """
    rng = random.Random(seed)
    count = rng.randint(2, max(2, max_actions))
    kinds = (
        "crash", "crash", "kill-leader", "isolate", "drop-wv", "drop-wr",
        "swap", "delay", "field", "rejuvenate",
    )
    actions: list = []
    for _ in range(count * 3):  # oversample; budget filter prunes
        if len(actions) >= count:
            break
        kind = rng.choice(kinds)
        at = round(rng.uniform(0.5, horizon * 0.7), 2)
        duration = round(rng.uniform(0.8, horizon * 0.4), 2)
        index = rng.randrange(n)
        if kind == "crash":
            candidate = CrashReplica(at=at, duration=duration, index=index)
        elif kind == "kill-leader":
            candidate = KillLeader(at=at, duration=duration)
        elif kind == "isolate":
            candidate = IsolateReplicas(at=at, duration=duration, indices=(index,))
        elif kind == "drop-wv":
            # §IV-D's drop attack targets the field link; co-located hops
            # (HMI <-> ProxyHMI on one machine) are not droppable, so an
            # unconstrained drop would model an impossible fault.
            candidate = DropKind(
                at=at, duration=duration, kind="WriteValue", dst="frontend-0"
            )
        elif kind == "drop-wr":
            candidate = DropKind(
                at=at, duration=duration, kind="WriteResult", src="frontend-0"
            )
        elif kind == "swap":
            behaviour = rng.choice(("silent", "lying", "stuttering", "falsifying"))
            candidate = SwapByzantine(
                at=at, duration=duration, index=index, behaviour=behaviour
            )
        elif kind == "delay":
            candidate = DelayKind(
                at=at, duration=duration, kind="PushMessage",
                extra=round(rng.uniform(0.001, 0.02), 4),
            )
        elif kind == "field":
            candidate = FieldOffline(at=at, duration=min(duration, 2.0), frontend=0)
        else:
            candidate = Rejuvenate(at=at, index=index)
        trial = Schedule(actions + [candidate])
        if (
            not allow_overload
            and trial.max_simultaneous_replica_faults(horizon) > f
        ):
            continue
        actions.append(candidate)
    return Schedule(actions)
