"""ProxyHMI: the HMI's transparent gateway into the replicated Master.

"The ProxyHMI receives the HMI messages and sends them via its BFT
client, to the ProxyMaster. [...] In this proxy, we have a DA server and
an AE server which simulate the servers available in the SCADA Master"
(§IV-A). The HMI connects to this proxy exactly as it would to a real
Master — the replication is invisible (challenge a). Inbound
asynchronous messages (ItemUpdate / EventUpdate / WriteResult) arrive as
replica pushes and are delivered to the HMI only after f+1 matching
copies (§IV-D: "the ProxyHMI waits for f+1 matching messages").

Sharded deployments hand the proxy one BFT client *per group* plus the
shard map. Writes and value queries route to the owning group; browse
and ``item_id="*"`` history queries scatter to every group and gather a
merged answer; the per-shard AE push streams pass through the
:class:`~repro.shard.merge.GlobalAeMerger` (deterministic global order)
and the :class:`~repro.shard.correlate.AlarmCorrelator` (cross-shard
incidents) before reaching the HMI's local AE server — so the HMI still
sees exactly one Master with one coherent alarm sequence.
"""

from __future__ import annotations

from repro.bftsmart.client import QuorumDivergence, ServiceProxy
from repro.bftsmart.config import GroupConfig
from repro.bftsmart.view import View
from repro.core.adapter import SCADA_STREAM
from repro.crypto import KeyStore
from repro.neoscada.ae.server import AEServer
from repro.neoscada.da.server import DAServer
from repro.neoscada.messages import (
    BrowseReply,
    BrowseRequest,
    EventQuery,
    EventQueryReply,
    EventUpdate,
    ItemUpdate,
    Subscribe,
    SubscribeEvents,
    ValueQuery,
    WriteResult,
    WriteValue,
)
from repro.net.network import Network
from repro.shard.correlate import AlarmCorrelator
from repro.shard.map import ShardRouter
from repro.shard.merge import GlobalAeMerger, merge_key
from repro.sim.kernel import Simulator
from repro.wire import DecodeError, decode, encode


class ProxyHMI:
    """The HMI-side proxy of SMaRt-SCADA."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        address: str,
        config: GroupConfig,
        keystore: KeyStore,
        invoke_timeout: float = 1.0,
        groups: list | None = None,
        shard_map=None,
    ) -> None:
        self.sim = sim
        self.address = address
        self.endpoint = net.endpoint(address)
        self.endpoint.set_handler(self._on_local_message)

        group_list = list(groups) if groups else [config]
        self.sharded = len(group_list) > 1
        if self.sharded and shard_map is None:
            raise ValueError("a multi-group proxy needs a shard map")
        self.router = ShardRouter(shard_map) if self.sharded else None
        self.bft_clients: list = []
        for shard, group in enumerate(group_list):
            client_id = (
                f"{address}-bft" if not self.sharded else f"{address}-bft-s{shard}"
            )
            client = ServiceProxy(
                sim=sim,
                net=net,
                client_id=client_id,
                keystore=keystore,
                view=View(0, group.addresses, group.f),
                invoke_timeout=invoke_timeout,
            )
            client.pushes.set_handler(
                SCADA_STREAM,
                (lambda order, payload, _s=shard: self._on_push(order, payload, _s)),
            )
            self.bft_clients.append(client)
        self.bft = self.bft_clients[0]

        # Local DA/AE servers simulating the Master's, for the HMI side.
        self.da_server = DAServer(self.endpoint.send, on_write=self._on_hmi_write)
        self.ae_server = AEServer(self.endpoint.send)

        # The global AE order + correlation layer (multi-shard only).
        self.merger = (
            GlobalAeMerger(sim, self._deliver_global, process=f"{address}-merger")
            if self.sharded
            else None
        )
        self.correlator = (
            AlarmCorrelator(sink=self.ae_server.publish)
            if self.sharded
            else None
        )

        #: origin op_id -> HMI reply address for in-flight writes.
        self._write_origins: dict[str, str] = {}
        #: op_id -> open ``proxy.forward`` span (tracer installed only).
        self._write_spans: dict = {}
        #: FIFO of HMI addresses awaiting a BrowseReply (single group).
        self._browse_waiters: list = []
        #: FIFO of in-flight browse gathers (sharded): each entry holds
        #: the origin, the shards still owing a reply, and the items so far.
        self._browse_gathers: list = []
        self.stats = {
            "forwarded_writes": 0,
            "updates_out": 0,
            "events_out": 0,
            "write_results_out": 0,
            "invoke_failures": 0,
            "unordered_reads": 0,
            "ordered_read_fallbacks": 0,
            "scatter_queries": 0,
        }
        #: op_id -> submit instant, feeding the end-to-end write latency
        #: histogram the SLO engine reads. Always on: pure arithmetic.
        self._write_submitted: dict[str, float] = {}
        self._write_latency = sim.metrics.histogram("hmi.write.latency")
        #: Sim instant the last AE event reached the HMI-side AE server.
        self.last_event_delivered: float | None = None
        #: Monotone id for browse scatter traces (browses carry no op id).
        self._browse_seq = 0
        sim.register_stats_source("proxy.hmi", lambda: dict(self.stats))
        self._started = False

    def start(self) -> None:
        """Subscribe this proxy to everything in every replicated Master."""
        if self._started:
            return
        self._started = True
        for client in self.bft_clients:
            self._submit(client, Subscribe(subscriber=client.client_id, item_id="*"))
            self._submit(
                client, SubscribeEvents(subscriber=client.client_id, item_id="*")
            )

    # ------------------------------------------------------------------
    # shard routing
    # ------------------------------------------------------------------

    def _client_for(self, item_id: str) -> ServiceProxy:
        if not self.sharded:
            return self.bft
        return self.bft_clients[self.router.route(item_id)]

    def flush_events(self) -> None:
        """Drain the AE merge buffer (quiescence helper for tests/CLI)."""
        if self.merger is not None:
            self.merger.flush()

    # ------------------------------------------------------------------
    # HMI-facing side
    # ------------------------------------------------------------------

    def _on_local_message(self, message, src: str) -> None:
        if isinstance(message, BrowseRequest):
            self._forward_browse(message)
            return
        if isinstance(message, EventQuery):
            self._forward_event_query(message)
            return
        if isinstance(message, ValueQuery):
            self._forward_value_query(message)
            return
        if self.da_server.dispatch(message, src):
            return
        if self.ae_server.dispatch(message, src):
            return

    def _forward_browse(self, message: BrowseRequest) -> None:
        if not self.sharded:
            self._browse_waiters.append(message.reply_to)
            self._submit(self.bft, BrowseRequest(reply_to=self.bft.client_id))
            return
        self._browse_seq += 1
        tracer = self.sim.tracer
        root = None
        fanout: dict = {}
        trace_id = f"browse:{self._browse_seq}"
        if tracer is not None and tracer.enabled:
            root = tracer.begin(
                "shard.scatter",
                trace_id,
                process=self.address,
                op="browse",
                shards=len(self.bft_clients),
            )
        gather = {
            "origin": message.reply_to,
            "pending": set(range(len(self.bft_clients))),
            "items": [],
            "root": root,
            "fanout": fanout,
        }
        self._browse_gathers.append(gather)
        for shard, client in enumerate(self.bft_clients):
            span = None
            if root is not None:
                span = tracer.begin(
                    "shard.scatter.fanout",
                    trace_id,
                    parent=root,
                    process=self.address,
                    op="browse",
                    shard=shard,
                )
                fanout[shard] = span
            self._submit(
                client, BrowseRequest(reply_to=client.client_id), parent=span
            )

    def _forward_event_query(self, query: EventQuery) -> None:
        """History queries ride the read-only (unordered) library path.

        A query for one item goes straight to the owning group. A
        wildcard query scatters to every group and gathers one reply in
        the global AE order (timestamp, shard, per-reply position) —
        the same rule the live merge applies.
        """
        if self.sharded and query.item_id == "*":
            self._scatter_event_query(query)
            return
        origin = query.reply_to
        span = None
        if self.sharded and query.item_id != "*":
            shard = self.router.route(query.item_id)
            client = self.bft_clients[shard]
            tracer = self.sim.tracer
            if tracer is not None and tracer.enabled:
                span = tracer.point(
                    "shard.route",
                    f"query:{query.query_id}",
                    process=self.address,
                    item=query.item_id,
                    shard=shard,
                    epoch=self.router.map.epoch,
                )
        else:
            client = self.bft if query.item_id == "*" else self._client_for(
                query.item_id
            )
        rewritten = EventQuery(
            query_id=query.query_id,
            reply_to=client.client_id,
            item_id=query.item_id,
            start=query.start,
            end=query.end,
            event_type=query.event_type,
            limit=query.limit,
        )
        event = client.invoke_unordered(encode(rewritten), parent=span)

        def on_done(ev) -> None:
            if not ev.ok:
                ev.defused = True
                self.stats["invoke_failures"] += 1
                return
            self.endpoint.send(origin, decode(ev.value))

        event.add_callback(on_done)

    def _scatter_event_query(self, query: EventQuery) -> None:
        self.stats["scatter_queries"] += 1
        origin = query.reply_to
        shards = len(self.bft_clients)
        gathered: dict[int, tuple] = {}
        remaining = [shards]
        tracer = self.sim.tracer
        trace_id = f"query:{query.query_id}"
        root = None
        if tracer is not None and tracer.enabled:
            root = tracer.begin(
                "shard.scatter",
                trace_id,
                process=self.address,
                op="event-query",
                item=query.item_id,
                shards=shards,
            )

        def finish() -> None:
            tagged = []
            for shard in sorted(gathered):
                for seq, ev in enumerate(gathered[shard]):
                    tagged.append((merge_key(ev.timestamp, shard, seq), ev))
            tagged.sort(key=lambda entry: entry[0])
            merged = tuple(ev for _key, ev in tagged)
            if query.limit is not None:
                merged = merged[: query.limit]
            if root is not None:
                tracer.end(root, events=len(merged))
            self.endpoint.send(
                origin, EventQueryReply(query_id=query.query_id, events=merged)
            )

        for shard, client in enumerate(self.bft_clients):
            rewritten = EventQuery(
                query_id=query.query_id,
                reply_to=client.client_id,
                item_id=query.item_id,
                start=query.start,
                end=query.end,
                event_type=query.event_type,
                limit=query.limit,
            )
            span = None
            if root is not None:
                span = tracer.begin(
                    "shard.scatter.fanout",
                    trace_id,
                    parent=root,
                    process=self.address,
                    op="event-query",
                    shard=shard,
                )

            def on_done(ev, _shard=shard, _span=span) -> None:
                if ev.ok:
                    gathered[_shard] = decode(ev.value).events
                    if _span is not None:
                        tracer.end(_span, events=len(gathered[_shard]))
                else:
                    # Best effort: a failed shard contributes nothing;
                    # the gathered reply still reflects every group that
                    # answered its n-f read quorum.
                    ev.defused = True
                    self.stats["invoke_failures"] += 1
                    if _span is not None:
                        tracer.end(_span, failed=True)
                remaining[0] -= 1
                if remaining[0] == 0:
                    finish()

            client.invoke_unordered(
                encode(rewritten), parent=span
            ).add_callback(on_done)

    def _forward_value_query(self, query: ValueQuery) -> None:
        """Current-value reads ride the unordered path, with a fallback.

        The read is first submitted unordered (n-f matching answers, no
        consensus round). When the read quorum diverges — replicas caught
        mid-catch-up serve different values — the proxy re-issues the same
        query through the total order, which always agrees. Sharded, the
        whole exchange happens against the single owning group.
        """
        origin = query.reply_to
        client = self._client_for(query.item_id)
        rewritten = ValueQuery(
            query_id=query.query_id,
            reply_to=client.client_id,
            item_id=query.item_id,
        )
        operation = encode(rewritten)
        self.stats["unordered_reads"] += 1

        def on_ordered(ev) -> None:
            if not ev.ok:
                ev.defused = True
                self.stats["invoke_failures"] += 1
                return
            self.endpoint.send(origin, decode(ev.value))

        def on_unordered(ev) -> None:
            if ev.ok:
                self.endpoint.send(origin, decode(ev.value))
                return
            ev.defused = True
            if isinstance(ev.exception, QuorumDivergence):
                self.stats["ordered_read_fallbacks"] += 1
                client.invoke_ordered(operation).add_callback(on_ordered)
            else:
                self.stats["invoke_failures"] += 1

        client.invoke_unordered(operation).add_callback(on_unordered)

    def _on_hmi_write(self, message: WriteValue, src: str) -> None:
        """Rewrite the reply path and push the write into the total order."""
        self.stats["forwarded_writes"] += 1
        self._write_origins[message.op_id] = message.reply_to
        self._write_submitted[message.op_id] = self.sim.now
        if self.sharded:
            shard = self.router.route(message.item_id)
            client = self.bft_clients[shard]
        else:
            shard = 0
            client = self.bft
        tracer = self.sim.tracer
        span = None
        if tracer is not None and tracer.enabled:
            span = tracer.begin(
                "proxy.forward",
                f"op:{message.op_id}",
                process=self.address,
                op_id=message.op_id,
                item=message.item_id,
            )
            self._write_spans[message.op_id] = span
            if self.sharded:
                tracer.point(
                    "shard.route",
                    f"op:{message.op_id}",
                    parent=span,
                    process=self.address,
                    item=message.item_id,
                    shard=shard,
                    epoch=self.router.map.epoch,
                )
        rewritten = WriteValue(
            item_id=message.item_id,
            value=message.value,
            op_id=message.op_id,
            reply_to=client.client_id,
            operator=message.operator,
        )
        self._submit(client, rewritten, parent=span)

    def _submit(self, client: ServiceProxy, message, parent=None) -> None:
        event = client.invoke_ordered(encode(message), parent=parent)
        event.add_callback(self._on_invoke_done)

    def _on_invoke_done(self, event) -> None:
        if not event.ok:
            event.defused = True
            self.stats["invoke_failures"] += 1

    # ------------------------------------------------------------------
    # replica-facing side: voted pushes
    # ------------------------------------------------------------------

    def _on_push(self, order: tuple, payload: bytes, shard: int = 0) -> None:
        try:
            message = decode(payload)
        except DecodeError:
            return
        if isinstance(message, ItemUpdate):
            self.stats["updates_out"] += 1
            self.da_server.publish(message.item_id, message.value)
        elif isinstance(message, EventUpdate):
            if self.merger is not None:
                self.merger.offer(shard, message.event)
            else:
                self.stats["events_out"] += 1
                self.last_event_delivered = self.sim.now
                self.ae_server.publish(message.event)
        elif isinstance(message, WriteResult):
            origin = self._write_origins.pop(message.op_id, None)
            submitted = self._write_submitted.pop(message.op_id, None)
            if submitted is not None:
                self._write_latency.observe(self.sim.now - submitted)
            span = self._write_spans.pop(message.op_id, None)
            if span is not None and self.sim.tracer is not None:
                self.sim.tracer.end(span, success=message.success)
            if origin is not None:
                self.stats["write_results_out"] += 1
                self.endpoint.send(origin, message)
        elif isinstance(message, BrowseReply):
            if not self.sharded:
                if self._browse_waiters:
                    self.endpoint.send(self._browse_waiters.pop(0), message)
                return
            for gather in self._browse_gathers:
                if shard in gather["pending"]:
                    gather["pending"].discard(shard)
                    gather["items"].extend(message.items)
                    tracer = self.sim.tracer
                    span = gather["fanout"].pop(shard, None)
                    if span is not None and tracer is not None:
                        tracer.end(span, items=len(message.items))
                    if not gather["pending"]:
                        self._browse_gathers.remove(gather)
                        if gather["root"] is not None and tracer is not None:
                            tracer.end(
                                gather["root"], items=len(gather["items"])
                            )
                        self.endpoint.send(
                            gather["origin"],
                            BrowseReply(items=tuple(sorted(gather["items"]))),
                        )
                    return

    def _deliver_global(self, shard: int, event) -> None:
        """Sink of the global merge: publish, then correlate."""
        self.stats["events_out"] += 1
        self.last_event_delivered = self.sim.now
        self.ae_server.publish(event)
        if self.correlator is not None:
            self.correlator.observe(shard, event)
