"""The Adapter: SMaRt-SCADA's glue between BFT server and Master core.

Figure 5: each ProxyMaster hosts a BFT server whose delivered operations
flow through the Adapter, which is "responsible for adding information to
each incoming message and to decide to which client the message should be
forwarded, DA or AE" (§IV-A). Concretely, the Adapter here is the
:class:`~repro.bftsmart.service.Service` implementation of the replica:

- every ordered operation carries a serialized NeoSCADA message; the
  Adapter stamps ContextInfo with the consensus-assigned timestamp and
  ordering data (challenge c), then drives the deterministic Master core
  with it — one message at a time through one entry point (challenges a
  and b);
- everything the Master emits (ItemUpdates, EventUpdates, WriteResults,
  forwarded WriteValues) is intercepted from the Master's transport and
  pushed asynchronously to the destination proxy, tagged with a
  deterministic ordering key so f+1 voting works (challenge d);
- a message travels with the bytes it encodes: the proxies submit
  messages, not bytes, and the replica pushes the Master's messages, so
  the request and each :class:`~repro.bftsmart.messages.PushMessage`
  carry their body record and neither side decodes what the other
  encoded (:meth:`~repro.bftsmart.replica.ServiceReplica.decoded`);
- forwarded writes arm the logical-timeout protocol (§IV-D).
"""

from __future__ import annotations

from repro.bftsmart.messages import TimeoutVote
from repro.bftsmart.service import MessageContext, Service
from repro.core.context import ContextInfo
from repro.core.timeout import LogicalTimeoutManager
from repro.neoscada.master import ScadaMaster
from repro.neoscada.messages import (
    EventQuery,
    ItemUpdate,
    ValueQuery,
    WriteResult,
    WriteValue,
)
from repro.shard.messages import ShardExport, ShardImport
from repro.wire import DecodeError, decode, encode

#: Stream name under which all SCADA pushes travel to the proxies.
SCADA_STREAM = "scada"


def proxy_client_id(address: str, shard: int, groups: int) -> str:
    """The id of the BFT client the proxy at ``address`` holds into ``shard``.

    One group keeps the classic ``{address}-bft``, as its replicas keep
    ``replica-i`` (:func:`repro.core.config.shard_replica_address`): the
    paper's deployment is the 1-group fleet, wire bytes included.
    """
    return f"{address}-bft" if groups == 1 else f"{address}-bft-s{shard}"


#: Messages servable outside the total order (pure reads of Master state).
_READ_ONLY_QUERIES = (EventQuery, ValueQuery)

#: The constant ``("ok", <what>)`` results of the ordered path, encoded once.
_OK = {
    what: encode(("ok", what))
    for what in ("vote", "shard-import", "control", "update", "write", "write_result")
}


class ScadaService(Service):
    """The replicated SCADA Master service (Adapter + Master core)."""

    def __init__(
        self,
        master: ScadaMaster,
        context: ContextInfo,
        timeouts: LogicalTimeoutManager | None = None,
        vote_quorum_source=None,
    ) -> None:
        super().__init__()
        if master.workers != 0:
            raise ValueError(
                "the replicated Master must run with workers=0 "
                "(single entry point, sequential execution)"
            )
        self.master = master
        self.context = context
        self.timeouts = timeouts
        #: Callable returning the valid timeout voters (replica addresses).
        self._vote_quorum_source = vote_quorum_source
        self._post_cost = 0.0
        master._transport = self._master_transport
        self.stats = {"operations": 0, "pushes": 0, "bad_operations": 0}

    # ------------------------------------------------------------------
    # master transport interception: outbound -> asynchronous pushes
    # ------------------------------------------------------------------

    def _master_transport(self, dst: str, message) -> None:
        """Route a Master-emitted message to its proxy as a voted push."""
        order = self.context.next_order_key()
        self.stats["pushes"] += 1
        self.replica.push(
            client_id=dst, stream=SCADA_STREAM, order=order, payload=message
        )

    # ------------------------------------------------------------------
    # the ordered execution path
    # ------------------------------------------------------------------

    def _decode_operation(self, operation: bytes):
        # All n co-simulated replicas execute the same request object (the
        # channel shares the client's), and NeoSCADA messages are frozen:
        # the message on its body record — the proxy's, or the first
        # decode's — serves cost_of, execute and every replica.
        try:
            return self.replica.decoded(operation)
        except DecodeError:
            return None

    def cost_of(self, operation: bytes) -> float:
        message = self._decode_operation(operation)
        if message is None or isinstance(message, TimeoutVote):
            return 0.0
        kind = _kind_of(message)
        if kind is None:
            return 0.0  # control plane (subscriptions, browse)
        return self.master.cost_of(kind, getattr(message, "item_id", None))

    def post_cost(self) -> float:
        cost, self._post_cost = self._post_cost, 0.0
        return cost

    def execute(self, operation: bytes, ctx: MessageContext) -> bytes:
        self.stats["operations"] += 1
        message = self._decode_operation(operation)
        if message is None:
            self.stats["bad_operations"] += 1
            return encode(("error", "undecodable operation"))
        if isinstance(message, _READ_ONLY_QUERIES):
            # The ordered fallback for a read whose unordered quorum
            # diverged: consensus placed it in the total order, so every
            # replica answers from the same state — no Master mutation.
            return encode(self._answer_query(message))
        self.context.begin(ctx)
        try:
            if isinstance(message, TimeoutVote):
                self._execute_timeout_vote(message, ctx)
                return _OK["vote"]
            if isinstance(message, ShardExport):
                # Shard migration, source side: every replica exports the
                # identical bundle at the same point of the total order.
                bundle = self.master.export_items(
                    message.item_ids, detach=message.detach
                )
                return encode(bundle)
            if isinstance(message, ShardImport):
                # Target side: install the bundle in consensus order.
                self.master.install_items(decode(message.payload))
                return _OK["shard-import"]
            kind = self.master.classify(message, ctx.client_id)
            if kind is None:
                return _OK["control"]
            outcome = self.master.execute(kind, message, ctx.client_id)
            self._post_cost = self._charge_events(outcome.events)
            self.master.commit_events(outcome.events)
            if self.timeouts is not None:
                if outcome.forwarded:
                    # The Master just sent a WriteValue towards a Frontend
                    # and is now blocked on the result: arm the logical
                    # timeout (§IV-D).
                    self.timeouts.arm(outcome.master_op, outcome.item_id)
                if kind == "write_result":
                    self.timeouts.disarm(message.op_id)
            return _OK[kind]
        finally:
            self.context.end()

    def _execute_timeout_vote(self, vote: TimeoutVote, ctx: MessageContext) -> None:
        if self.timeouts is None:
            return
        if ctx.client_id != f"{vote.replica}-adapter":
            # A Byzantine node may not stuff the ballot with votes in
            # other replicas' names: the vote must arrive through the
            # claimed replica's own (authenticated) adapter client.
            return
        voters = (
            self._vote_quorum_source()
            if self._vote_quorum_source is not None
            else self.replica.view.addresses
        )
        synthesized = self.timeouts.on_ordered_vote(vote, voters)
        if synthesized is not None:
            outcome = self.master.execute(
                "write_result", synthesized, self.master.address
            )
            self._post_cost = self._charge_events(outcome.events)
            self.master.commit_events(outcome.events)

    def _charge_events(self, events: list) -> float:
        """Event routing cost plus any stall at the storage station."""
        if not events:
            return 0.0
        cost = self.master.costs.event_cost(len(events))
        cost += self.master.storage_station.submit(
            self.master.sim.now, len(events)
        )
        return cost

    # ------------------------------------------------------------------
    # read-only path (unordered requests)
    # ------------------------------------------------------------------

    def execute_unordered(self, operation: bytes) -> bytes:
        """Serve read-only queries outside the total order.

        Only genuinely read-only messages are accepted; anything else is
        refused (a client cannot smuggle a state change past consensus).
        The caller (ServiceProxy) demands n-f matching answers, so a
        minority of stale or lying replicas cannot fabricate history.
        """
        message = self._decode_operation(operation)
        if isinstance(message, _READ_ONLY_QUERIES):
            return encode(self._answer_query(message))
        raise ValueError("only read-only queries may execute unordered")

    def _answer_query(self, message):
        if isinstance(message, EventQuery):
            return self.master.answer_event_query(message)
        return self.master.answer_value_query(message)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> bytes:
        subscriptions = _subscriptions_state(self.master)
        return encode((self.master.state_tuple(), subscriptions))

    def install_snapshot(self, data: bytes) -> None:
        master_state, subscriptions = decode(data)
        self.master.install_state(master_state)
        _restore_subscriptions(self.master, subscriptions)


def _kind_of(message) -> str | None:
    """Data-plane kind of a NeoSCADA message (None = control plane)."""
    if isinstance(message, ItemUpdate):
        return "update"
    if isinstance(message, WriteValue):
        return "write"
    if isinstance(message, WriteResult):
        return "write_result"
    return None


def _subscriptions_state(master: ScadaMaster) -> tuple:
    def dump(manager) -> tuple:
        return tuple(
            (item_id, tuple(sorted(subs)))
            for item_id, subs in sorted(manager._by_item.items())
        )

    return (
        dump(master.da_server.subscriptions),
        dump(master.ae_server.subscriptions),
    )


def _restore_subscriptions(master: ScadaMaster, state: tuple) -> None:
    def load(manager, dumped) -> None:
        manager._by_item.clear()
        for item_id, subs in dumped:
            for subscriber in subs:
                manager.subscribe(subscriber, item_id)

    da_state, ae_state = state
    load(master.da_server.subscriptions, da_state)
    load(master.ae_server.subscriptions, ae_state)
