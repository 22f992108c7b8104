"""The service replica: Mod-SMaRt total ordering + execution + checkpoints.

One :class:`ServiceReplica` is the server side of the library — what the
paper calls the "BFT server" inside each ProxyMaster. It receives signed
client requests, totally orders them through VP-Consensus (PROPOSE →
WRITE → ACCEPT), executes decided batches *sequentially* through a single
executor (the determinism requirement of §III-B), replies to
clients, takes periodic checkpoints and serves state transfer.

The work is split into Mod-SMaRt's roles, one collaborator each:
:mod:`~repro.bftsmart.pool` (admission and the silence rule),
:mod:`~repro.bftsmart.proposer` (batching and proposing),
:mod:`~repro.bftsmart.acceptor` (consensus and in-order release),
:mod:`~repro.bftsmart.executor` (execution, replies, pushes,
checkpoints, reconfiguration), :mod:`~repro.bftsmart.leaderchange` and
:mod:`~repro.bftsmart.statetransfer`. The replica itself holds the
public surface — identity, view, progress counters, stats — the network
dispatch table and the sites where a :class:`~repro.bftsmart.byzantine.Behaviour`
is consulted.
"""

from __future__ import annotations

from repro.bftsmart.acceptor import Acceptor
from repro.bftsmart.channel import SecureChannel
from repro.bftsmart.config import GroupConfig
from repro.bftsmart.consensus import Proposal
from repro.bftsmart.executor import Executor
from repro.bftsmart.leaderchange import Synchronizer
from repro.bftsmart.messages import (
    AcceptMsg,
    ClientRequest,
    FetchRequests,
    Propose,
    Reply,
    RequestBatch,
    StateReply,
    StateRequest,
    Stop,
    StopData,
    Sync,
    WriteMsg,
)
from repro.bftsmart.pool import Pool
from repro.bftsmart.proposer import Proposer
from repro.bftsmart.service import Service
from repro.bftsmart.statetransfer import StateTransfer
from repro.bftsmart.view import View
from repro.crypto import KeyStore, Signer, Verifier
from repro.net.network import Network
from repro.sim.kernel import Simulator
from repro.wire import encode_cached


class ServiceReplica:
    """One member of a BFT replication group."""

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        address: str,
        config: GroupConfig,
        service: Service,
        keystore: KeyStore,
        view: View | None = None,
        storage=None,
    ) -> None:
        self.sim = sim
        self.net = net
        self.address = address
        self.config = config
        self.service = service
        service.bind(self)
        #: Optional :class:`repro.storage.ReplicaStorage`. When present,
        #: decisions are WAL-appended, checkpoints persisted, and boot
        #: recovers from disk before asking peers for anything.
        self.storage = storage
        #: The :class:`repro.storage.RecoveredState` this incarnation
        #: booted from, or ``None`` (no storage / nothing recovered).
        self.recovered_from_disk = None

        self.endpoint = net.endpoint(address)
        self.endpoint.set_handler(self._on_network_message)
        self.channel = SecureChannel(self.endpoint, keystore)
        self.signer = Signer(address, keystore)
        self.verifier = Verifier(keystore)

        self.view = view if view is not None else View(0, config.addresses, config.f)
        #: ``(view, its members but this replica)``: see other_replicas().
        self._others: tuple = (None, ())
        self.active = True
        #: ``None`` (honest) or a :class:`repro.bftsmart.byzantine.Behaviour`
        #: consulted on ingress, proposing, fetch answers, every reply and
        #: every push.
        self.behaviour = None

        # -- progress: the consensus head and the decided log --
        self.next_cid = 0
        self.last_decided = -1
        #: Next slot this replica would propose as leader. Runs ahead of
        #: ``next_cid`` by up to ``config.pipeline_depth`` slots: the
        #: leader opens instances for cid+1..cid+depth-1 while earlier
        #: ones are still deciding.
        self.next_propose_cid = 0
        self.executed_cid = -1
        #: decided-but-possibly-unexecuted log since the checkpoint:
        #: list of (cid, value_bytes, timestamp).
        self.decision_log: list = []
        self.checkpoint_cid = -1
        #: Time of the last decision (suspicion is suppressed while the
        #: group is making progress even if some requests are old).
        self.last_progress = 0.0
        #: FetchRequests this replica sent (zero while every follower
        #: holds every proposed request).
        self.fetches = 0

        # -- roles --
        self.pool = Pool(self)
        self.proposer = Proposer(self)
        self.acceptor = Acceptor(self)
        self.executor = Executor(self)
        self.synchronizer = Synchronizer(self)
        self.state_transfer = StateTransfer(self)
        #: What a service reads an operation it executes through.
        self.decoded = self.executor.decoded
        self.checkpoint_snapshot: bytes = self.executor.snapshot_blob()
        #: type -> the role's handler(message, envelope sender).
        self.dispatch = {
            ClientRequest: self.pool.on_request,
            RequestBatch: self.pool.on_envelope,
            Propose: self.acceptor.on_propose,
            FetchRequests: self.proposer.answer_fetch,
            # Never on the wire: a SYNC re-proposal held for a later slot.
            Proposal: self.acceptor.on_proposal,
            WriteMsg: self.acceptor.on_vote,
            AcceptMsg: self.acceptor.on_vote,
            Stop: self.synchronizer.on_stop,
            StopData: self.synchronizer.on_stop_data,
            Sync: self.synchronizer.on_sync,
            StateRequest: self.state_transfer.on_request,
            StateReply: self.state_transfer.on_reply,
        }

        # -- metrics --
        self.stats = {
            "proposals": 0,
            "decided": 0,
            "executed": 0,
            "replies": 0,
            "pushes": 0,
            "rejected_requests": 0,
            "checkpoints": 0,
            # -- pipeline occupancy --
            "decided_out_of_order": 0,
            "pipeline_occupancy_sum": 0,
            "pipeline_occupancy_peak": 0,
            "pipeline_occupancy_samples": 0,
        }
        sim.register_stats_source(f"pipeline.{address}", self._pipeline_stats)
        sim.register_stats_source(f"replica.{address}", self._service_stats)

        sim.defer(0.0, self.executor.drive, None)
        self.pool.watch()

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    @property
    def regency(self) -> int:
        return self.synchronizer.regency

    @property
    def leader(self) -> str:
        return self.view.leader_for(self.regency)

    @property
    def is_leader(self) -> bool:
        return self.leader == self.address

    def other_replicas(self) -> tuple:
        """The view's members except this replica, rebuilt once per view."""
        view, others = self._others
        if view is not self.view:
            others = tuple(a for a in self.view.addresses if a != self.address)
            self._others = (self.view, others)
        return others

    def halt(self) -> None:
        """Stop participating (used when removed by a reconfiguration)."""
        self.active = False

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def _service_stats(self) -> dict:
        """Per-replica service counters for the metrics registry.

        ``rejected_envelopes`` is the secure channel's bad-MAC drop count
        — forged traffic never reaches the request path, so this (not
        ``rejected_requests``) is where frontend spoofing shows up.
        """
        names = ("proposals", "decided", "executed", "replies", "pushes", "rejected_requests")
        return {
            **{name: self.stats[name] for name in names},
            "rejected_envelopes": self.channel.rejected,
            "fetches": self.fetches,
        }

    def _pipeline_stats(self) -> dict:
        samples = self.stats["pipeline_occupancy_samples"]
        return {
            "depth": self.config.pipeline_depth,
            "occupancy_peak": self.stats["pipeline_occupancy_peak"],
            "occupancy_mean": (
                self.stats["pipeline_occupancy_sum"] / samples if samples else 0.0
            ),
            "decided_out_of_order": self.stats["decided_out_of_order"],
        }

    # ------------------------------------------------------------------
    # the entries the roles call, and the Behaviour hook sites
    # ------------------------------------------------------------------

    def _on_network_message(self, payload, src: str) -> None:
        if not self.active:
            return
        if self.behaviour is not None:
            payload = self.behaviour.on_ingress(self, payload, src)
            if payload is None:
                return
        # open() rejects (and counts) anything that is not a valid Sealed.
        opened = self.channel.open(payload)
        if opened is None:
            return
        message, sender = opened
        handler = self.dispatch.get(type(message))
        if handler is not None:
            handler(message, sender)

    def _batch_timer_fired(self) -> None:
        self.proposer.batch_timer_fired()

    def _propose_batch(self) -> None:
        batch = self.pool.take(self.config.batch_max)
        if self.behaviour is not None:
            batch = self.behaviour.on_propose(self, batch)
            if batch is None:
                return
        self.proposer.propose(batch)

    def _send_fetched(self, to: str, requests: tuple) -> None:
        """Answer a follower's fetch, through the behaviour's fetch hook."""
        if self.behaviour is not None:
            requests = self.behaviour.on_fetch(self, requests)
            if requests is None:
                return
        self.channel.send(to, RequestBatch(requests=requests))

    def _execute_one(self, cid: int, order: int, request, timestamp: float) -> None:
        self.executor.execute_one(cid, order, request, timestamp)

    def _send_reply(self, to: str, reply: Reply) -> None:
        """Send a reply to a client, through the behaviour's reply hook."""
        if self.behaviour is not None:
            reply = self.behaviour.on_reply(self, reply)
            if reply is None:
                return
        self.channel.send(to, reply)

    def push(self, client_id: str, stream: str, order: tuple, payload) -> None:
        """Send an asynchronous message to a client-side listener.

        ``payload`` is bytes or a message, which is encoded here and, when
        frozen, rides its :class:`PushMessage` as the body record (see
        :meth:`Executor.push_message <repro.bftsmart.executor.Executor.push_message>`).
        """
        if not self.active:
            return
        if self.behaviour is not None:
            data = payload if isinstance(payload, bytes) else encode_cached(payload)
            forged = self.behaviour.on_push(self, client_id, stream, order, data)
            if forged is None:
                return
            if forged is not data:
                payload = forged
        message = self.executor.push_message((client_id, stream, order, payload))
        self.stats["pushes"] += 1
        self.channel.send(client_id, message)

    def recover_from_disk(self):
        """Restart-from-disk boot path.

        Validates the newest durable checkpoint, installs it, and hands
        the verified WAL tail to the executor like any other decision —
        the replica then only needs the suffix it missed from peers (a
        partial state transfer). If any digest failed, the disk is
        distrusted wholesale and the replica boots empty, falling back
        to the full f+1-verified transfer.

        Must be called *after* the service is fully configured (handler
        chains attached): installing a snapshot earlier would silently
        drop the handler-chain state it carries. Returns the
        :class:`repro.storage.RecoveredState` (also kept in
        ``recovered_from_disk``), or ``None`` without storage.
        """
        return self.executor.recover_from_disk()
