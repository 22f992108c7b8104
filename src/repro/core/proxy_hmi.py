"""ProxyHMI: the HMI's transparent gateway into the replicated Master.

"The ProxyHMI receives the HMI messages and sends them via its BFT
client, to the ProxyMaster. [...] In this proxy, we have a DA server and
an AE server which simulate the servers available in the SCADA Master"
(§IV-A). The HMI connects to this proxy exactly as it would to a real
Master — the replication is invisible (challenge a). Inbound
asynchronous messages (ItemUpdate / EventUpdate / WriteResult) arrive as
replica pushes and are delivered to the HMI only after f+1 matching
copies (§IV-D: "the ProxyHMI waits for f+1 matching messages").

The proxy holds one BFT client *per group* plus the shard map, and has
one code path for any number of groups. Writes and value queries route
to the owning group; browse and ``item_id="*"`` history queries scatter
to every group and gather one answer; the per-group AE push streams pass
through the :class:`~repro.shard.merge.GlobalAeMerger` (deterministic
global order) and the :class:`~repro.shard.correlate.AlarmCorrelator`
(cross-group incidents) before reaching the HMI's local AE server — so
the HMI sees exactly one Master with one coherent alarm sequence. The
paper's deployment is the 1-group case: every route resolves to group 0,
the merger releases each event on offer and the correlator never fires.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bftsmart.client import QuorumDivergence, ServiceProxy
from repro.bftsmart.cluster import build_proxy
from repro.bftsmart.messages import PushMessage
from repro.bftsmart.replica import body_of
from repro.core.adapter import SCADA_STREAM, proxy_client_id
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
from repro.shard.map import ShardMap, ShardRouter
from repro.shard.merge import MERGE_HOLDBACK, GlobalAeMerger, merge_key
from repro.sim.kernel import Simulator
from repro.wire import DecodeError, decode


class ProxyHMI:
    """The HMI-side proxy of SMaRt-SCADA."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        address: str,
        groups: list,
        shard_map: ShardMap,
        keystore: KeyStore,
        invoke_timeout: float = 1.0,
    ) -> None:
        self.sim = sim
        self.address = address
        self.endpoint = net.endpoint(address)
        self.endpoint.set_handler(self._on_local_message)

        self.router = ShardRouter(shard_map)
        #: One BFT client per group, indexed by shard.
        self.bft_clients: list = [
            build_proxy(
                sim,
                net,
                proxy_client_id(address, shard, len(groups)),
                group,
                keystore,
                invoke_timeout,
            )
            for shard, group in enumerate(groups)
        ]
        for shard, client in enumerate(self.bft_clients):
            client.pushes.set_handler(
                SCADA_STREAM,
                (lambda push, _s=shard: self._on_push(push, _s)),
            )
        #: Group 0's client: the one client of the paper's deployment.
        self.bft = self.bft_clients[0]

        # Local DA/AE servers simulating the Master's, for the HMI side.
        self.da_server = DAServer(self.endpoint.send, on_write=self._on_hmi_write)
        self.ae_server = AEServer(self.endpoint.send)

        # The global AE order + correlation layer. With one group no other
        # stream can undercut a key, so the merger holds nothing back.
        self.merger = GlobalAeMerger(
            sim,
            self._deliver_global,
            holdback=MERGE_HOLDBACK if len(groups) > 1 else 0.0,
            process=f"{address}-merger",
        )
        self.correlator = AlarmCorrelator(sink=self.ae_server.publish)

        #: origin op_id -> HMI reply address for in-flight writes.
        self._write_origins: dict[str, str] = {}
        #: op_id -> open ``proxy.forward`` span (tracer installed only).
        self._write_spans: dict = {}
        #: FIFO of in-flight browse gathers: each entry holds the origin,
        #: the shards still owing a reply, and the items so far.
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
            # Handed over together, the two subscriptions travel in one
            # envelope and share a PROPOSE.
            subscriptions = [
                Subscribe(subscriber=client.client_id, item_id="*"),
                SubscribeEvents(subscriber=client.client_id, item_id="*"),
            ]
            for event in client.invoke_ordered_together(subscriptions):
                event.add_callback(self._on_invoke_done)

    def flush_events(self) -> None:
        """Drain the AE merge buffer (quiescence helper for tests/CLI)."""
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

    def _route(self, item_id: str, trace_id: str, parent=None):
        """The client of the group owning ``item_id``, and the
        ``shard.route`` trace point (``None`` when tracing is off)."""
        shard = self.router.route(item_id)
        tracer = self.sim.tracer
        point = None
        if tracer is not None and tracer.enabled:
            point = tracer.point(
                "shard.route",
                trace_id,
                parent=parent,
                process=self.address,
                item=item_id,
                shard=shard,
                epoch=self.router.map.epoch,
            )
        return self.bft_clients[shard], point

    def _forward_browse(self, message: BrowseRequest) -> None:
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
        if query.item_id == "*":
            self._scatter_event_query(query)
            return
        origin = query.reply_to
        client, span = self._route(query.item_id, f"query:{query.query_id}")
        rewritten = replace(query, reply_to=client.client_id)
        event = client.invoke_unordered(rewritten, parent=span)

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
            rewritten = replace(query, reply_to=client.client_id)
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

            client.invoke_unordered(rewritten, parent=span).add_callback(on_done)

    def _forward_value_query(self, query: ValueQuery) -> None:
        """Current-value reads ride the unordered path, with a fallback.

        The read is first submitted unordered (n-f matching answers, no
        consensus round). When the read quorum diverges — replicas caught
        mid-catch-up serve different values — the proxy re-issues the same
        query through the total order, which always agrees. The whole
        exchange happens against the single owning group.
        """
        origin = query.reply_to
        client = self.bft_clients[self.router.route(query.item_id)]
        operation = replace(query, reply_to=client.client_id)
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
        client, _point = self._route(message.item_id, f"op:{message.op_id}", span)
        self._submit(client, replace(message, reply_to=client.client_id), parent=span)

    def _submit(self, client: ServiceProxy, message, parent=None) -> None:
        event = client.invoke_ordered(message, parent=parent)
        event.add_callback(self._on_invoke_done)

    def _on_invoke_done(self, event) -> None:
        if not event.ok:
            event.defused = True
            self.stats["invoke_failures"] += 1

    # ------------------------------------------------------------------
    # replica-facing side: voted pushes
    # ------------------------------------------------------------------

    def _on_push(self, push: PushMessage, shard: int) -> None:
        try:
            message = body_of(push, push.payload)
        except DecodeError:
            return
        if isinstance(message, ItemUpdate):
            self.stats["updates_out"] += 1
            self.da_server.publish(message.item_id, message.value)
        elif isinstance(message, EventUpdate):
            self.merger.offer(shard, message.event)
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
        self.ae_server.publish(event)
        self.correlator.observe(shard, event)
