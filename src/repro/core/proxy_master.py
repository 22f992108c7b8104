"""ProxyMaster: one replica of the BFT SCADA Master.

Each ProxyMaster bundles (Figure 5): the BFT server (a
:class:`~repro.bftsmart.replica.ServiceReplica`), the Adapter
(:class:`~repro.core.adapter.ScadaService`), the deterministic Master
core it drives, the ContextInfo module, and the replica's side of the
logical-timeout protocol — including the "adapter client" through which
its timeout votes enter the total order.
"""

from __future__ import annotations

from repro.bftsmart.client import ServiceProxy
from repro.bftsmart.config import GroupConfig, replica_address
from repro.bftsmart.replica import ServiceReplica
from repro.bftsmart.view import View
from repro.core.adapter import ScadaService
from repro.core.config import SmartScadaConfig
from repro.core.context import ContextInfo
from repro.core.timeout import LogicalTimeoutManager
from repro.crypto import KeyStore
from repro.neoscada.master import ScadaMaster
from repro.net.network import Network
from repro.sim.kernel import Simulator


class ProxyMaster:
    """One SCADA Master replica with its proxy machinery."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        index: int,
        config: SmartScadaConfig,
        keystore: KeyStore,
        group: GroupConfig | None = None,
        view: View | None = None,
        storage=None,
        address: str | None = None,
        shard: int = 0,
    ) -> None:
        self.sim = sim
        self.index = index
        #: Sharded deployments namespace replica addresses per group
        #: (``s<k>-replica-<i>``); the default is the classic single-group
        #: address derived from the index.
        self.address = address if address is not None else replica_address(index)
        #: Which replication group this replica belongs to (0 unsharded).
        self.shard = shard
        group = group if group is not None else config.group_config()
        client_view = view if view is not None else View(0, group.addresses, group.f)

        self.context = ContextInfo()
        # Every replica's Master core shares one logical identity: the op
        # ids and reply addresses it stamps into messages must be
        # byte-identical across replicas, or the proxies' f+1 vote on
        # pushed messages could never succeed.
        self.master = ScadaMaster(
            sim=sim,
            net=net,
            address="scada-master",
            frontends=[],
            costs=config.costs,
            workers=0,  # single entry point: the Adapter drives the core
            jitter=0.0,
            clock=self.context.now,
            event_id_source=self.context.next_event_id,
            write_timeout=None,  # replaced by the logical-timeout protocol
        )

        # The adapter client: how this replica's timeout votes enter the
        # total order ("each Adapter sends to the other Adapters a
        # timeout message", §IV-D).
        self.vote_client = ServiceProxy(
            sim=sim,
            net=net,
            client_id=f"{self.address}-adapter",
            keystore=keystore,
            view=client_view,
            invoke_timeout=config.invoke_timeout,
            # Rejuvenated instances restart this client at the same id;
            # starting above any plausible predecessor sequence keeps the
            # peers' dedup from swallowing the new incarnation's votes.
            sequence_start=int(sim.now * 1_000_000),
        )
        self.timeouts = LogicalTimeoutManager(
            sim=sim,
            replica_address=self.address,
            timeout=config.logical_timeout,
            majority=config.timeout_majority,
            send_vote=self._send_vote,
        )
        self.service = ScadaService(
            master=self.master,
            context=self.context,
            timeouts=self.timeouts,
        )
        self.replica = ServiceReplica(
            sim=sim,
            net=net,
            address=self.address,
            config=group,
            service=self.service,
            keystore=keystore,
            view=view,
            storage=storage,
        )

    def _send_vote(self, vote) -> None:
        event = self.vote_client.invoke_ordered(vote)
        event.add_callback(lambda ev: setattr(ev, "defused", True))

    def attach_handlers(self, item_id: str, chain) -> None:
        """Attach a handler chain to this replica's Master core.

        Must be called identically on every replica before traffic flows
        (handler chains are configuration, not replicated state).
        """
        self.master.attach_handlers(item_id, chain)
