"""ProxyFrontend: a Frontend's transparent gateway into the BFT Master.

"The ProxyFrontend [...] employs the BFT client of the library to
transmit all messages that come from the Frontend to the SCADA Master.
When the SCADA Master needs to communicate with the Frontend, the
ProxyFrontend receives messages from the client-side of the library and
forwards them using the DA client" (§IV-A). It also votes f+1 matching
pushed WriteValues before handing them to the Frontend (§IV-D-b).

The proxy holds one BFT client *per group* plus the shard map: RTU
ingress routes to the owning group by item id (through a resolve-once
router cache, so steady-state routing is one dict hit) and the Frontend
never learns how many Masters exist — the same transparency argument the
paper makes for replication itself. The paper's deployment is the
1-group case of the same path: every item routes to group 0.
"""

from __future__ import annotations

from repro.bftsmart.cluster import build_proxy
from repro.bftsmart.messages import PushMessage, body_of
from repro.core.adapter import SCADA_STREAM, proxy_client_id
from repro.crypto import KeyStore
from repro.neoscada.da.client import DAClient
from repro.neoscada.messages import (
    BrowseReply,
    ItemUpdate,
    WriteResult,
    WriteValue,
)
from repro.net.network import Network
from repro.shard.map import ShardMap, ShardRouter
from repro.sim.kernel import Simulator
from repro.wire import DecodeError


class ProxyFrontend:
    """One Frontend's proxy in SMaRt-SCADA."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        address: str,
        frontend_address: str,
        groups: list,
        shard_map: ShardMap,
        keystore: KeyStore,
        invoke_timeout: float = 1.0,
    ) -> None:
        self.sim = sim
        self.address = address
        self.frontend_address = frontend_address
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
        for client in self.bft_clients:
            client.pushes.set_handler(SCADA_STREAM, self._on_push)
        #: Per group: the operations handed over in the current instant,
        #: in arrival order, and the most one envelope may carry.
        self._queued: list = [[] for _group in groups]
        self._envelope_max: list = [group.batch_max for group in groups]

        self.da_client = DAClient(address, self.endpoint.send)
        self.stats = {
            "updates_in": 0,
            "writes_out": 0,
            "write_results_in": 0,
            "invoke_failures": 0,
        }
        self._started = False

    def start(self) -> None:
        """Subscribe to the Frontend so its updates flow into the order."""
        if self._started:
            return
        self._started = True
        self.da_client.subscribe(self.frontend_address, "*")
        self.da_client.browse(self.frontend_address)

    # ------------------------------------------------------------------
    # frontend-facing side
    # ------------------------------------------------------------------

    def _on_local_message(self, message, src: str) -> None:
        if isinstance(message, ItemUpdate):
            self.stats["updates_in"] += 1
            self._submit(self.router.route(message.item_id), message)
            return
        if isinstance(message, WriteResult):
            self.stats["write_results_in"] += 1
            self._submit(self.router.route(message.item_id), message)
            return
        if isinstance(message, BrowseReply):
            # Teaches the replicated Master this Frontend's item directory
            # (and therefore which proxy owns which item): each group
            # learns exactly the slice of the directory it owns.
            by_shard: dict[int, list] = {}
            for entry in message.items:
                by_shard.setdefault(self.router.route(entry[0]), []).append(entry)
            for shard in sorted(by_shard):
                self._submit(shard, BrowseReply(items=tuple(by_shard[shard])))
            return

    def _submit(self, shard: int, message) -> None:
        """Queue ``message`` for group ``shard``'s flush of this instant.

        What the Frontend emits in one instant (an ItemUpdate and the
        WriteResult it caused, a poll's updates) travels in one envelope,
        so the leader orders it in one PROPOSE without waiting for it.
        """
        queued = self._queued[shard]
        if not queued:
            self.sim.defer(0.0, self._flush, shard)
        # The network sized an arriving message by its memoized encoding:
        # signing it reuses those bytes instead of encoding it again, and
        # the replicas take the message itself from the request's record.
        queued.append(message)

    def _flush(self, shard: int) -> None:
        operations, self._queued[shard] = self._queued[shard], []
        client, most = self.bft_clients[shard], self._envelope_max[shard]
        for start in range(0, len(operations), most):
            envelope = operations[start : start + most]
            for event in client.invoke_ordered_together(envelope):
                event.add_callback(self._on_invoke_done)

    def _on_invoke_done(self, event) -> None:
        if not event.ok:
            event.defused = True
            self.stats["invoke_failures"] += 1

    # ------------------------------------------------------------------
    # replica-facing side: voted pushes (WriteValue towards the field)
    # ------------------------------------------------------------------

    def _on_push(self, push: PushMessage) -> None:
        try:
            message = body_of(push, push.payload)
        except DecodeError:
            return
        if isinstance(message, WriteValue):
            self.stats["writes_out"] += 1
            rewritten = WriteValue(
                item_id=message.item_id,
                value=message.value,
                op_id=message.op_id,
                reply_to=self.address,
                operator=message.operator,
            )
            self.endpoint.send(self.frontend_address, rewritten)
