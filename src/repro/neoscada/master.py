"""The SCADA Master: NeoSCADA's central server.

The Master mirrors the Frontends' items, runs the handler chains,
persists events, and serves the HMI over DA and AE (paper Figure 2).

The class is split into a *deterministic core* and a *concurrency
shell*, because that split is exactly what the paper's port to BFT
replication required:

- The core (:meth:`classify` / :meth:`execute` / :meth:`commit_events`)
  mutates state synchronously and takes every environmental input —
  clock, event ids, message transport — through injected callables.
  Given the same message sequence and the same injected inputs, two core
  instances evolve identically. SMaRt-SCADA's Adapter drives this core
  directly (one message at a time, in consensus order, with
  ContextInfo-supplied clock and event ids). Such a core is on no
  network: the Adapter's transport is its only way out and
  ``ScadaService.execute`` its only way in.

- The shell (the network endpoint and the worker pool started by
  :meth:`start`) reproduces the original NeoSCADA behaviour: ``workers``
  concurrent threads pull messages off a shared queue and processing
  times carry seeded jitter, so the order in which state changes land
  is *not* the arrival order — the multi-threading nondeterminism of
  challenge §III-B(b), which the divergence tests demonstrate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.neoscada.ae.events import Severity
from repro.neoscada.ae.server import AEServer
from repro.neoscada.da.client import DAClient
from repro.neoscada.da.server import DAServer
from repro.neoscada.handlers.base import HandlerContext
from repro.neoscada.handlers.chain import HandlerChain
from repro.neoscada.items import ItemRegistry
from repro.neoscada.messages import (
    BrowseReply,
    EventQuery,
    EventQueryReply,
    ItemUpdate,
    ValueQuery,
    ValueQueryReply,
    WriteResult,
    WriteValue,
)
from repro.neoscada.storage import EventStorage, StorageStation
from repro.neoscada.values import DataValue, Quality
from repro.net.network import Network
from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class MasterCosts:
    """Simulated CPU costs of the Master's data-plane operations.

    The absolute values are calibrated so that the benchmark suite
    reproduces the *relative* results of the paper's Figure 8 (see
    EXPERIMENTS.md); they model the Java processing costs of the
    original testbed.
    """

    #: One ItemUpdate through the DA + AE subsystems.
    update_processing: float = 0.00055
    #: One WriteValue or WriteResult leg through the DA subsystem.
    write_processing: float = 0.00070
    #: Creating and routing one event (beyond the handler chain itself).
    event_processing: float = 0.00008
    #: Service time of the storage writer per persisted event. Storage is
    #: a single serial station: producers only block once its buffer is
    #: exhausted, so its cost is invisible at low event rates and becomes
    #: the bottleneck as the event rate approaches ``1/storage_service_time``
    #: — the mechanism behind the paper's 100%-alarms result (Fig. 8b).
    storage_service_time: float = 0.0008
    #: Events the storage station buffers before producers block.
    storage_buffer: int = 64
    #: Extra serialization cost per message (the replicated deployment
    #: sets this > 0: single-entry-point marshalling, §VII-b).
    serialization: float = 0.0

    def event_cost(self, count: int) -> float:
        return count * self.event_processing


@dataclass
class ExecutionOutcome:
    """What one core execution produced."""

    kind: str
    events: list = field(default_factory=list)
    #: For writes: whether the operation was forwarded / answered.
    blocked: bool = False
    forwarded: bool = False
    #: The Master-side op id of a forwarded write (for timeout tracking).
    master_op: str | None = None
    #: The item a forwarded write targets.
    item_id: str | None = None


class ScadaMaster:
    """NeoSCADA's SCADA Master.

    Parameters
    ----------
    sim, net, address:
        Simulation attachment. ``transport`` overrides the network send;
        the replicated deployment's Adapter installs its own.
    frontends:
        Addresses of the Frontends to mirror.
    workers:
        Size of the concurrent worker pool; 0 disables the shell
        entirely: no endpoint, no queue, and external drivers call the
        core directly.
    jitter:
        Relative processing-time jitter (e.g. 0.2 = ±20%), the source of
        scheduling nondeterminism. Ignored when ``workers == 0``.
    clock:
        Zero-argument callable giving event timestamps. Defaults to the
        simulation clock — the OS-clock nondeterminism of §III-B(c).
    event_id_source:
        Zero-argument callable producing event ids; defaults to a local
        counter (``"<address>:e<N>"``), which is *not* replica-safe.
    write_timeout:
        Seconds after which a forwarded write is answered with a failed
        WriteResult if the Frontend never responds (None = block forever,
        the behaviour §IV-D warns about).
    audit_writes:
        If True, successful write completions also raise an event.
    """

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        address: str,
        frontends: list,
        costs: MasterCosts | None = None,
        workers: int = 4,
        jitter: float = 0.2,
        clock=None,
        event_id_source=None,
        write_timeout: float | None = 5.0,
        audit_writes: bool = False,
        transport=None,
    ) -> None:
        self.sim = sim
        self.address = address
        self.frontends = list(frontends)
        self.costs = costs if costs is not None else MasterCosts()
        self.workers = workers
        self.jitter = jitter
        self.write_timeout = write_timeout
        self.audit_writes = audit_writes

        self._transport = transport
        if workers > 0:
            endpoint = net.endpoint(address)
            endpoint.set_handler(self._on_network_message)
            if transport is None:
                self._transport = endpoint.send
            #: Classified data-plane messages no worker has taken yet, and
            #: the idle workers' wake-up events, each oldest first.
            self._backlog: deque = deque()
            self._idle: deque = deque()
            self._jitter_rng = sim.rng.stream(f"master.{address}.jitter")

        self.clock = clock if clock is not None else (lambda: sim.now)
        self._event_counter = 0
        self.event_id_source = (
            event_id_source if event_id_source is not None else self._next_event_id
        )

        self.items = ItemRegistry()
        self.chains: dict[str, HandlerChain] = {}
        self.item_frontend: dict[str, str] = {}
        self.storage = EventStorage()
        self.storage_station = StorageStation(
            service_time=self.costs.storage_service_time,
            buffer_size=self.costs.storage_buffer,
        )
        #: master-op-id -> (origin_reply_to, origin_op_id, item_id, operator)
        self.pending_writes: dict[str, tuple] = {}
        self._op_counter = 0

        self.da_server = DAServer(
            self._send,
            on_write=None,  # writes are data-plane; classified below
            browse_source=lambda: [
                (item.item_id, item.writable) for item in self.items
            ],
        )
        self.ae_server = AEServer(self._send)
        self.da_client = DAClient(
            address, self._send, on_update=None, on_browse=None
        )

        self.stats = {
            "updates": 0,
            "writes": 0,
            "write_results": 0,
            "events": 0,
            "blocked_writes": 0,
            "timeouts": 0,
        }
        self._started = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def _send(self, dst: str, message) -> None:
        self._transport(dst, message)

    def _next_event_id(self) -> str:
        self._event_counter += 1
        return f"{self.address}:e{self._event_counter}"

    def next_op_id(self) -> str:
        self._op_counter += 1
        return f"{self.address}:w{self._op_counter}"

    def attach_handlers(self, item_id: str, chain: HandlerChain) -> None:
        """Associate a handler chain with an item (``"*"`` = default)."""
        self.chains[item_id] = chain

    def chain_for(self, item_id: str) -> HandlerChain | None:
        return self.chains.get(item_id) or self.chains.get("*")

    def start(self) -> None:
        """Subscribe to the Frontends and start the worker pool."""
        if self._started:
            return
        self._started = True
        for frontend in self.frontends:
            self.da_client.subscribe(frontend, "*")
            self.da_client.browse(frontend)
        for index in range(self.workers):
            self.sim.process(self._worker(), name=f"master-worker:{self.address}:{index}")

    # ------------------------------------------------------------------
    # inbound: classification (control plane now, data plane queued)
    # ------------------------------------------------------------------

    def _on_network_message(self, message, src: str) -> None:
        kind = self.classify(message, src)
        if kind is not None:
            if self._idle:
                self._idle.popleft().succeed((kind, message, src))
            else:
                self._backlog.append((kind, message, src))

    def classify(self, message, src: str) -> str | None:
        """Sort a message into a data-plane kind, or handle it inline.

        Control-plane traffic (subscriptions, browse) is processed
        immediately; data-plane traffic returns a kind for ordered
        execution: ``"update"``, ``"write"``, ``"write_result"``.
        """
        if isinstance(message, ItemUpdate):
            return "update"
        if isinstance(message, WriteValue):
            return "write"
        if isinstance(message, WriteResult):
            return "write_result"
        if isinstance(message, BrowseReply):
            self._learn_browse(message, src)
            return None
        if isinstance(message, EventQuery):
            # Read-only history query: answered inline from storage. (The
            # replicated deployment never routes these here — they travel
            # the library's unordered path instead; see ScadaService.)
            self._send(message.reply_to, self.answer_event_query(message))
            return None
        if isinstance(message, ValueQuery):
            # Read-only current-value query: same inline treatment.
            self._send(message.reply_to, self.answer_value_query(message))
            return None
        if self.da_server.dispatch(message, src):
            return None
        if self.ae_server.dispatch(message, src):
            return None
        return None

    def answer_event_query(self, query: EventQuery) -> EventQueryReply:
        """Run a history query against the event storage."""
        events = self.storage.query(
            item_id=query.item_id,
            start=query.start,
            end=query.end,
            event_type=query.event_type,
            limit=query.limit,
        )
        return EventQueryReply(query_id=query.query_id, events=tuple(events))

    def answer_value_query(self, query: ValueQuery) -> ValueQueryReply:
        """Read an item's current value off the Master state."""
        item = self.items.try_get(query.item_id)
        return ValueQueryReply(
            query_id=query.query_id,
            item_id=query.item_id,
            value=item.value if item is not None else None,
        )

    def _learn_browse(self, message: BrowseReply, src: str) -> None:
        for item_id, writable in message.items:
            item = self.items.ensure(item_id)
            item.writable = bool(writable)
            self.item_frontend.setdefault(item_id, src)

    # ------------------------------------------------------------------
    # the concurrency shell (original NeoSCADA behaviour)
    # ------------------------------------------------------------------

    def _take(self):
        """The event a worker waits on for its next message.

        A queued message is handed over through an event triggered now,
        so the worker resumes at a dispatch of its own, as an idle one
        does when a message arrives.
        """
        event = self.sim.event()
        if self._backlog:
            event.succeed(self._backlog.popleft())
        else:
            self._idle.append(event)
        return event

    def _worker(self):
        while True:
            kind, message, src = yield self._take()
            cost = self.cost_of(kind, getattr(message, "item_id", None))
            if self.jitter > 0:
                cost *= 1.0 + self.jitter * self._jitter_rng.uniform(-1.0, 1.0)
            if cost > 0:
                yield self.sim.timeout(cost)
            outcome = self.execute(kind, message, src)
            if outcome.events:
                cost = self.costs.event_cost(len(outcome.events))
                cost += self.storage_station.submit(
                    self.sim.now, len(outcome.events)
                )
                if cost > 0:
                    yield self.sim.timeout(cost)
                self.commit_events(outcome.events)

    # ------------------------------------------------------------------
    # the deterministic core
    # ------------------------------------------------------------------

    def cost_of(self, kind: str, item_id: str | None = None) -> float:
        """Pre-execution CPU cost of one data-plane message."""
        if kind == "update":
            base = self.costs.update_processing
        else:
            base = self.costs.write_processing
        chain = self.chain_for(item_id) if item_id is not None else None
        chain_cost = chain.cost if chain is not None else 0.0
        return base + chain_cost + self.costs.serialization

    def execute(self, kind: str, message, src: str) -> ExecutionOutcome:
        """Apply one data-plane message to the Master state.

        Deterministic given (kind, message, src) and the injected clock /
        event-id source. Publishes DA traffic via the transport; returns
        the events for the caller to commit (after charging their cost).
        """
        if kind == "update":
            return self._execute_update(message, src)
        if kind == "write":
            return self._execute_write(message, src)
        if kind == "write_result":
            return self._execute_write_result(message, src)
        raise ValueError(f"unknown execution kind {kind!r}")

    def commit_events(self, events: list) -> None:
        """Persist and publish events produced by an execution."""
        for event in events:
            self.storage.append(event)
            self.stats["events"] += 1
            self.ae_server.publish(event)

    # -- update flow (paper Figure 3) -----------------------------------------

    def _execute_update(self, message: ItemUpdate, src: str) -> ExecutionOutcome:
        self.stats["updates"] += 1
        item = self.items.ensure(message.item_id)
        if src != self.address:
            self.item_frontend.setdefault(message.item_id, src)
        ctx = HandlerContext(
            item_id=message.item_id,
            now=self.clock(),
            event_id_source=self.event_id_source,
            is_write=False,
            previous=item.value,
        )
        chain = self.chain_for(message.item_id)
        if chain is not None:
            result = chain.process(message.value, ctx)
            value, events = result.value, result.events
        else:
            value, events = message.value, []
        item.value = value
        self.da_server.publish(message.item_id, value)
        return ExecutionOutcome(kind="update", events=events)

    # -- write flow (paper Figure 4) --------------------------------------------

    def _execute_write(self, message: WriteValue, src: str) -> ExecutionOutcome:
        self.stats["writes"] += 1
        item = self.items.try_get(message.item_id)
        ctx = HandlerContext(
            item_id=message.item_id,
            now=self.clock(),
            event_id_source=self.event_id_source,
            is_write=True,
            operator=message.operator,
            previous=item.value if item is not None else None,
        )
        if item is None or not item.writable:
            reason = (
                f"unknown item {message.item_id!r}"
                if item is None
                else f"item {message.item_id!r} is not writable"
            )
            self._send(
                message.reply_to,
                WriteResult(
                    item_id=message.item_id,
                    op_id=message.op_id,
                    success=False,
                    reason=reason,
                ),
            )
            return ExecutionOutcome(kind="write", blocked=True)

        value = DataValue(message.value, Quality.GOOD, ctx.now)
        chain = self.chain_for(message.item_id)
        events: list = []
        if chain is not None:
            result = chain.process(value, ctx)
            events = result.events
            if result.blocked:
                # The Block handler denied the write: the operator gets a
                # failed WriteResult over DA *and* the reason as an event
                # over AE (paper §II-B-b).
                self.stats["blocked_writes"] += 1
                self._send(
                    message.reply_to,
                    WriteResult(
                        item_id=message.item_id,
                        op_id=message.op_id,
                        success=False,
                        reason=result.block_reason,
                    ),
                )
                return ExecutionOutcome(kind="write", events=events, blocked=True)
            value = result.value

        frontend = self.item_frontend.get(message.item_id)
        if frontend is None:
            self._send(
                message.reply_to,
                WriteResult(
                    item_id=message.item_id,
                    op_id=message.op_id,
                    success=False,
                    reason=f"no frontend owns item {message.item_id!r}",
                ),
            )
            return ExecutionOutcome(kind="write", events=events, blocked=True)

        master_op = self.next_op_id()
        self.pending_writes[master_op] = (
            message.reply_to,
            message.op_id,
            message.item_id,
            message.operator,
        )
        self._send(
            frontend,
            WriteValue(
                item_id=message.item_id,
                value=message.value,
                op_id=master_op,
                reply_to=self.address,
                operator=message.operator,
            ),
        )
        if self.write_timeout is not None and self.workers > 0:
            self.sim.defer(self.write_timeout, self._local_write_timeout, master_op)
        return ExecutionOutcome(
            kind="write",
            events=events,
            forwarded=True,
            master_op=master_op,
            item_id=message.item_id,
        )

    def _local_write_timeout(self, master_op: str) -> None:
        """Unreplicated fallback when a Frontend never answers a write.

        The replicated deployment disables this (workers == 0) and uses
        the distributed logical-timeout protocol instead (§IV-D).
        """
        pending = self.pending_writes.pop(master_op, None)
        if pending is None:
            return
        reply_to, origin_op, item_id, _operator = pending
        self.stats["timeouts"] += 1
        self._send(
            reply_to,
            WriteResult(
                item_id=item_id,
                op_id=origin_op,
                success=False,
                reason="write timed out waiting for the frontend",
            ),
        )

    def _execute_write_result(self, message: WriteResult, src: str) -> ExecutionOutcome:
        pending = self.pending_writes.pop(message.op_id, None)
        if pending is None:
            return ExecutionOutcome(kind="write_result")
        self.stats["write_results"] += 1
        reply_to, origin_op, item_id, operator = pending
        events: list = []
        if not message.success or self.audit_writes:
            ctx = HandlerContext(
                item_id=item_id,
                now=self.clock(),
                event_id_source=self.event_id_source,
                is_write=True,
                operator=operator,
            )
            events.append(
                ctx.make_event(
                    event_type="write-completed" if message.success else "write-failed",
                    severity=Severity.INFO if message.success else Severity.WARNING,
                    value=None,
                    message=(
                        f"write by {operator!r} "
                        + ("succeeded" if message.success else f"failed: {message.reason}")
                    ),
                )
            )
        self._send(
            reply_to,
            WriteResult(
                item_id=item_id,
                op_id=origin_op,
                success=message.success,
                reason=message.reason,
            ),
        )
        return ExecutionOutcome(kind="write_result", events=events)

    # ------------------------------------------------------------------
    # item migration (shard splits)
    # ------------------------------------------------------------------

    def export_items(self, item_ids, detach: bool = True) -> tuple:
        """Export the state of ``item_ids`` for migration to another group.

        Returns a canonical bundle: the items (value + writable flag),
        their owning-frontend entries, and their slice of the event log
        in commit order. ``detach=True`` removes all of it from this
        Master, so after the shard map switches ownership the history is
        held exactly once. Deterministic: driven through the ordered
        path, every replica exports the identical bundle.
        """
        wanted = set(item_ids)
        items = tuple(
            (item.item_id, item.value, item.writable)
            for item in self.items
            if item.item_id in wanted
        )
        ownership = tuple(
            sorted(
                (item_id, frontend)
                for item_id, frontend in self.item_frontend.items()
                if item_id in wanted
            )
        )
        events = tuple(
            event for event in self.storage.to_tuple() if event.item_id in wanted
        )
        if detach:
            for item_id, _value, _writable in items:
                self.items.remove(item_id)
            for item_id, _frontend in ownership:
                self.item_frontend.pop(item_id, None)
            if events:
                kept = [
                    event
                    for event in self.storage.to_tuple()
                    if event.item_id not in wanted
                ]
                self.storage.restore(kept, total_written=self.storage.total_written)
        return (items, ownership, events)

    def install_items(self, bundle: tuple) -> None:
        """Install an :meth:`export_items` bundle into this Master.

        Items this Master already re-created from post-switch traffic
        keep their live value (it is fresher than the migrated one);
        the import supplies the writable flag, the frontend ownership
        and the migrated event history either way.
        """
        items, ownership, events = bundle
        for item_id, value, writable in items:
            item = self.items.try_get(item_id)
            if item is None:
                item = self.items.ensure(item_id)
                item.value = value
            item.writable = writable
        for item_id, frontend in ownership:
            self.item_frontend[item_id] = frontend
        for event in events:
            self.storage.append(event)

    # ------------------------------------------------------------------
    # state (snapshots for the replicated deployment)
    # ------------------------------------------------------------------

    def state_tuple(self) -> tuple:
        """Canonical full state, for snapshots and divergence checks."""
        return (
            tuple(
                (item.item_id, item.value, item.writable) for item in self.items
            ),
            tuple(sorted(self.item_frontend.items())),
            self.storage.to_tuple(),
            self.storage.total_written,
            tuple(sorted(self.pending_writes.items())),
            self._op_counter,
            self._event_counter,
            tuple(
                (item_id, chain.state()) for item_id, chain in sorted(self.chains.items())
            ),
        )

    def install_state(self, state: tuple) -> None:
        """Restore from :meth:`state_tuple` output."""
        (
            items,
            item_frontend,
            events,
            total_written,
            pending,
            op_counter,
            event_counter,
            chain_states,
        ) = state
        self.items = ItemRegistry()
        for item_id, value, writable in items:
            item = self.items.ensure(item_id)
            item.value = value
            item.writable = writable
        self.item_frontend = dict(item_frontend)
        self.storage.restore(list(events), total_written=total_written)
        self.pending_writes = dict(pending)
        self._op_counter = op_counter
        self._event_counter = event_counter
        chains = dict(chain_states)
        for item_id, chain in self.chains.items():
            if item_id in chains:
                chain.restore(chains[item_id])
