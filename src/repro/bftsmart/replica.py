"""The service replica: Mod-SMaRt total ordering + execution + checkpoints.

One :class:`ServiceReplica` is the server side of the library — what the
paper calls the "BFT server" inside each ProxyMaster. It receives signed
client requests, totally orders them through VP-Consensus (PROPOSE →
WRITE → ACCEPT), executes decided batches *sequentially* through a single
executor process (the determinism requirement of §III-B), replies to
clients, takes periodic checkpoints and serves state transfer.

Leader change lives in :mod:`repro.bftsmart.leaderchange`; state transfer
in :mod:`repro.bftsmart.statetransfer`.
"""

from __future__ import annotations

from itertools import islice
from operator import is_

from repro.bftsmart.channel import SecureChannel
from repro.bftsmart.config import GroupConfig
from repro.bftsmart.consensus import Instance
from repro.bftsmart.leaderchange import Synchronizer
from repro.bftsmart.messages import (
    AcceptMsg,
    ClientRequest,
    Propose,
    PushMessage,
    ReconfigRequest,
    Reply,
    RequestBatch,
    StateReply,
    StateRequest,
    Stop,
    StopData,
    Sync,
    WriteMsg,
)
from repro.bftsmart.service import MessageContext, Service
from repro.bftsmart.statetransfer import StateTransfer
from repro.bftsmart.view import View
from repro.crypto import KeyStore, Signature, Signer, Verifier, digest
from repro.net.network import Network
from repro.obs.trace import request_trace_id
from repro.perf import PERF
from repro.sim.channels import Channel
from repro.sim.kernel import Simulator
from repro.wire import DecodeError, decode, encode

#: Operations starting with this marker carry a ReconfigRequest.
RECONFIG_MARKER = b"\x00RECONFIG\x00"

#: How far past a suspicion deadline the watchdog wakes (seconds): its
#: comparisons are strict, and a nanosecond clears float rounding on any
#: simulated clock this repo reaches.
_DEADLINE_MARGIN = 1e-9

#: Prime's turnaround rule: a follower's patience with the leader is this
#: many times its measured arrival -> PROPOSE turnaround (capped at
#: ``request_timeout``). Its oldest unproposed request waits one patience
#: before it is forwarded to the leader, and one more before the leader
#: is suspected.
PATIENCE_TURNAROUNDS = 8

#: Attribute under which :class:`~repro.bftsmart.client.ServiceProxy`
#: records, on each :class:`ClientRequest` it signs, ``(fields, record)``:
#: the signed field objects and the signer's ``(key, payload, tag)`` (see
#: :mod:`repro.crypto.signatures`). The replicas hold that very request
#: object (the channel shares it), so verifying it costs neither the
#: payload encode nor the HMAC; the record lives as long as the request.
SIGNED_ATTR = "_signed_memo"
_SIGNING_STATS = PERF.stats["signing_payload"]

#: Attribute under which a leader records, on its own :class:`Propose`,
#: ``(value, batch)``: the :class:`RequestBatch` it encoded into
#: ``value``. Every replica holding that Propose object takes the batch
#: instead of decoding the value.
_BATCH_ATTR = "_batch_memo"


def signing_payload(fields: tuple) -> bytes:
    """Bytes a client signs: the encoded ``(client_id, sequence,
    operation, reply_to, unordered)`` — every field but ``mac`` and
    ``trace_id``."""
    _SIGNING_STATS.misses += 1
    return encode(fields)


def request_signing_payload(request: ClientRequest) -> tuple:
    """``(payload, record)``: the signed bytes and the signer's record.

    The record is ``None`` unless the request carries one whose field
    objects are exactly the request's own (a copy with a swapped field
    misses and is re-encoded, so the check runs on its real content).
    """
    fields = (
        request.client_id,
        request.sequence,
        request.operation,
        request.reply_to,
        request.unordered,
    )
    memo = request.__dict__.get(SIGNED_ATTR)
    if memo is not None and all(map(is_, memo[0], fields)):
        _SIGNING_STATS.hits += 1
        record = memo[1]
        return record[1], record
    return signing_payload(fields), None


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
        #: consulted on ingress, proposing, every reply and every push.
        self.behaviour = None

        # -- ordering state --
        self.next_cid = 0
        self.last_decided = -1
        #: Next slot this replica would propose as leader. Runs ahead of
        #: ``next_cid`` by up to ``config.pipeline_depth`` slots: the
        #: leader opens instances for cid+1..cid+depth-1 while earlier
        #: ones are still deciding. Decided-but-unreleased instances stay
        #: in ``instances`` until every lower cid decided too — execution
        #: (and the deterministic §IV-C timestamps) is strictly in cid
        #: order regardless of decision order.
        self.next_propose_cid = 0
        self.instances: dict[int, Instance] = {}
        #: Consensus messages for slots just ahead of next_cid, buffered
        #: until we catch up (a recovering replica would otherwise chase
        #: a moving target forever). Slots further ahead than this window
        #: trigger state transfer instead.
        self.future_window = 64
        self._future_buffer: dict[int, list] = {}
        #: member -> messages of it in ``_future_buffer``; each member may
        #: hold at most ``future_share`` (see _hold_future).
        self.future_held: dict[str, int] = {}
        self._draining_future = False
        #: request key -> (request, arrival time); insertion-ordered, so
        #: the first entry is the oldest undecided request.
        self.pending: dict[tuple, tuple] = {}
        #: The entries of ``pending`` no valid PROPOSE carried yet, in the
        #: same order, on every replica: the pool a leader batches from,
        #: and what a follower holds the leader to. A regency or state
        #: install puts everything undecided back (``reset_unproposed``).
        self._unproposed: dict[tuple, tuple] = {}
        #: Smoothed arrival -> PROPOSE delay of the requests a PROPOSE took
        #: from ``_unproposed``. Before the first sample, patience is an
        #: eighth of ``request_timeout``: with no traffic to notice it
        #: sooner, the forward lands on the next quarter-timeout tick.
        self._turnaround = config.request_timeout / (8 * PATIENCE_TURNAROUNDS)
        #: ``(key, instant)``: the oldest unproposed request when this
        #: follower last forwarded it to the leader (or suspected the
        #: leader over it), and when; ``key`` is ``None`` after a regency
        #: install. Requests that arrived by ``instant`` waited on a
        #: forward or a leader change, not on the leader's turnaround, and
        #: are not sampled.
        self._forwarded: tuple = (None, -float("inf"))
        self._batch_timer_armed = False
        self._hold_timer_armed = False
        #: cid of the latest decided batch carrying a reconfiguration.
        self._reconfig_cid = -1

        # -- execution state --
        self._exec_channel = Channel(sim, name=f"exec:{address}")
        #: True while the executor works on an entry it took.
        self._executing = False
        #: Bumped by every checkpoint install; executor entries queued
        #: under an older epoch are stale (they predate the installed
        #: state) and must be dropped, or their execution would poison
        #: the dedup table against the install's own replay.
        self._install_epoch = 0
        self._last_executed_seq: dict[str, int] = {}
        self._dispatched_seq: dict[str, int] = {}
        #: client id -> ``(cid, {sequence: reply})``: the ordered replies
        #: of the last decided batch that carried requests of this client.
        #: What a retransmission of an executed request gets back — of any
        #: request that batch held, since a client may send several in one
        #: envelope and lose the replies to an older one.
        self.last_reply: dict[str, tuple] = {}
        self.executed_cid = -1
        #: decided-but-possibly-unexecuted log since the checkpoint:
        #: list of (cid, value_bytes, timestamp).
        self.decision_log: list = []
        self.checkpoint_cid = -1
        self.checkpoint_snapshot: bytes = self._snapshot_blob()
        #: Time of the last decision (suspicion is suppressed while the
        #: group is making progress even if some requests are old).
        self.last_progress = 0.0

        # -- subprotocols --
        self.synchronizer = Synchronizer(self)
        self.state_transfer = StateTransfer(self)

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

        sim.process(self._executor(), name=f"executor:{address}")
        sim.process(self._watchdog(), name=f"watchdog:{address}")

    # ------------------------------------------------------------------
    # membership helpers
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
    # message dispatch
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
        handler = self._dispatch_table.get(type(message))
        if handler is not None:
            handler(self, message, sender)

    # ------------------------------------------------------------------
    # client requests
    # ------------------------------------------------------------------

    def _verify_request(self, request: ClientRequest) -> bool:
        # A replica sees every ordered request twice: once on arrival and
        # once inside the proposed batch. Only verified requests enter
        # ``pending``, and an equal frozen request carries the same
        # signature over the same payload — so a request equal to its own
        # pending entry is verified already, and the entry leaves when
        # the request is decided.
        entry = self.pending.get(request.key())
        if entry is not None and entry[0] == request:
            return True
        try:
            signature = Signature(request.client_id, request.mac)
        except ValueError:
            return False
        payload, record = request_signing_payload(request)
        return self.verifier.verify(signature, payload, record)

    def _on_client_request(self, request: ClientRequest) -> None:
        if self._admit(request):
            self._on_pooled()

    def _on_request_envelope(self, envelope: RequestBatch) -> None:
        """Requests one client handed over in one instant.

        Each takes the per-request path, and the leader considers
        proposing once, after the last, so they share a PROPOSE whatever
        the jitter between them. A follower forwarding a client's
        requests to the leader sends the same envelope. One holding more
        than one PROPOSE may carry (or no tuple at all) comes from no
        honest sender: it is dropped whole and counted once.
        """
        requests = envelope.requests
        if not isinstance(requests, tuple) or len(requests) > self.config.batch_max:
            self.stats["rejected_requests"] += 1
            return
        admitted = False
        for request in requests:
            if isinstance(request, ClientRequest):
                admitted |= self._admit(request)
            else:
                self.stats["rejected_requests"] += 1
        if admitted:
            self._on_pooled()

    def _on_pooled(self) -> None:
        """New requests joined the pool: a leader considers proposing, a
        follower whether the leader outstayed its patience (traffic is
        how a follower notices a silent leader between watchdog ticks)."""
        self._maybe_propose()
        self._watch_silence()

    def _admit(self, request: ClientRequest) -> bool:
        """Verify, deduplicate and pool one request; True if it was pooled."""
        if not self._verify_request(request):
            self.stats["rejected_requests"] += 1
            return False
        if request.unordered:
            self._execute_unordered(request)
            return False
        last = self._last_executed_seq.get(request.client_id, -1)
        if request.sequence <= last:
            # Retransmission of something already executed: resend reply.
            cached = self.last_reply.get(request.client_id)
            reply = cached[1].get(request.sequence) if cached is not None else None
            if reply is not None:
                self._send_reply(request.reply_to, reply)
            return False
        key = request.key()
        if key in self.pending:
            return False
        self.pending[key] = self._unproposed[key] = (request, self.sim.now)
        return True

    def _execute_unordered(self, request: ClientRequest) -> None:
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.point(
                "request.execute",
                tracer.for_request(request),
                process=self.address,
                unordered=True,
            )
        try:
            result = self.service.execute_unordered(request.operation)
        except Exception as exc:  # deterministic failure -> error reply
            result = encode(("error", str(exc)))
        reply = Reply(
            client_id=request.client_id,
            sequence=request.sequence,
            result=result,
            view_id=self.view.view_id,
            regency=self.regency,
        )
        self._send_reply(request.reply_to, reply)

    # ------------------------------------------------------------------
    # leader: batching and proposing
    # ------------------------------------------------------------------

    def reset_unproposed(self) -> None:
        """Return every undecided request to the leader's pool."""
        self._unproposed = dict(self.pending)
        self._forwarded = (None, self.sim.now)

    def _pipeline_full(self) -> bool:
        """Has the leader exhausted its window of open consensus slots?"""
        head = max(self.next_propose_cid, self.next_cid)
        return head >= self.next_cid + self.config.pipeline_depth

    def _service_stats(self) -> dict:
        """Per-replica service counters for the metrics registry.

        ``rejected_envelopes`` is the secure channel's bad-MAC drop count
        — forged traffic never reaches the request path, so this (not
        ``rejected_requests``) is where frontend spoofing shows up.
        """
        return {
            "proposals": self.stats["proposals"],
            "decided": self.stats["decided"],
            "executed": self.stats["executed"],
            "replies": self.stats["replies"],
            "pushes": self.stats["pushes"],
            "rejected_requests": self.stats["rejected_requests"],
            "rejected_envelopes": self.channel.rejected,
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

    def _held_back(self) -> bool:
        """Backpressure: is ordering waiting for this leader's executor?

        Opening an instance whose batch would only queue behind the
        executor buys nothing — the requests ride in a later, larger
        PROPOSE at the same execution instant, for a fraction of the
        PROPOSE/WRITE/ACCEPT traffic. So a leader holds its pool while
        all three hold:

        1. two or more decided batches wait in front of its executor (one
           queued batch keeps the executor fed while the next is ordered,
           so below capacity this never fires);
        2. the oldest unproposed request has waited less than
           ``request_timeout / 4`` — the watchdog's own tick, so no
           follower ages a request towards suspicion because of the hold,
           however slow the service is;
        3. the regency is older than one ``request_timeout`` — right
           after a leader change the followers' patience is spent and the
           backlog is drained eagerly;
        4. the backlog was decided live, not replayed from a disk or a
           state transfer: followers pause their silence rule while
           their own executors hold the same batches, and only live
           decisions have that mirror.
        """
        now = self.sim.now
        return (
            len(self._exec_channel) >= 2
            and now >= self.synchronizer.synced_at + self.config.request_timeout
            and not self.state_transfer.recovering
            and now < self._hold_lapses()
        )

    def _hold_lapses(self) -> float:
        """When the oldest unproposed request has waited out a hold."""
        _request, arrival = next(iter(self._unproposed.values()))
        return arrival + self.config.request_timeout / 4

    def _hold_timer_fired(self) -> None:
        self._hold_timer_armed = False
        self._maybe_propose()

    def _maybe_propose(self, batch_waited: bool = False) -> None:
        if not (self.active and self.is_leader):
            return
        if self.synchronizer.in_progress or self.state_transfer.in_progress:
            return
        if self.executed_cid < self._reconfig_cid:
            # The next instance runs under the membership the decided
            # reconfiguration installs; a PROPOSE sent before it is in
            # effect would miss a joining member.
            return
        config = self.config
        while not (self._pipeline_full() or self._batch_timer_armed):
            if not self._unproposed:
                return
            if self._held_back():
                if not self._hold_timer_armed:
                    # now + (lapse - now) may land an ulp short of the
                    # lapse; the re-armed difference is then exact.
                    self._hold_timer_armed = True
                    self.sim.defer(
                        self._hold_lapses() - self.sim.now, self._hold_timer_fired
                    )
                return
            if (
                batch_waited
                or len(self._unproposed) >= config.batch_max
                or config.batch_wait <= 0
            ):
                self._propose_batch()
                batch_waited = False
                continue
            self._batch_timer_armed = True
            self.sim.defer(config.batch_wait, self._batch_timer_fired)
            return

    def _batch_timer_fired(self) -> None:
        self._batch_timer_armed = False
        self._maybe_propose(batch_waited=True)

    def _take_batch(self) -> list:
        """Move the oldest ``batch_max`` unproposed requests out of the pool."""
        pool = self._unproposed
        keys = list(islice(pool, self.config.batch_max))
        return [pool.pop(key)[0] for key in keys]

    def _propose_batch(self) -> None:
        batch = self._take_batch()
        if self.behaviour is not None:
            batch = self.behaviour.on_propose(self, batch)
            if batch is None:
                return
        self._propose(batch)

    def _propose(self, batch: list, cid: int | None = None) -> None:
        """Propose ``batch`` for slot ``cid`` (default: the next free one)."""
        # A retransmission can re-enter the pool after the same client's
        # newer requests (the original was dropped, the resend arrived
        # post-heal). Restore each client's sequence order in place —
        # keeping the cross-client interleaving — or every replica would
        # reject the batch's out-of-order sequences and suspect us.
        positions: dict[str, list] = {}
        for index, request in enumerate(batch):
            positions.setdefault(request.client_id, []).append(index)
        for indices in positions.values():
            if len(indices) > 1:
                ordered = sorted(
                    (batch[i] for i in indices), key=lambda r: r.sequence
                )
                for index, request in zip(indices, ordered):
                    batch[index] = request
        batch_message = RequestBatch(requests=tuple(batch))
        value = encode(batch_message)
        if cid is None:
            cid = max(self.next_propose_cid, self.next_cid)
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            # One pending span per request: arrival at the leader through
            # inclusion in this proposal (the batching wait of §IV).
            for request in batch:
                entry = self.pending.get(request.key())
                arrival = entry[1] if entry is not None else self.sim.now
                tracer.end(
                    tracer.begin(
                        "request.pending",
                        tracer.for_request(request),
                        process=self.address,
                        start=arrival,
                        cid=cid,
                    )
                )
        propose = Propose(
            cid=cid,
            epoch=self.regency,
            value=value,
            timestamp=self.sim.now,
        )
        propose.__dict__[_BATCH_ATTR] = (value, batch_message)
        self.next_propose_cid = max(self.next_propose_cid, cid + 1)
        self.stats["proposals"] += 1
        occupancy = self.next_propose_cid - self.next_cid
        self.stats["pipeline_occupancy_sum"] += occupancy
        self.stats["pipeline_occupancy_samples"] += 1
        if occupancy > self.stats["pipeline_occupancy_peak"]:
            self.stats["pipeline_occupancy_peak"] = occupancy
        self.channel.broadcast(self.other_replicas(), propose)
        self.on_propose(propose, self.address)

    # ------------------------------------------------------------------
    # consensus: PROPOSE / WRITE / ACCEPT
    # ------------------------------------------------------------------

    def _instance(self, cid: int, epoch: int) -> Instance:
        instance = self.instances.get(cid)
        if instance is None:
            instance = Instance(cid, epoch)
            self.instances[cid] = instance
        elif epoch > instance.epoch:
            self._trace_abort_instance(instance)
            instance.advance_epoch(epoch)
        return instance

    # -- tracing hooks (no-ops unless a SpanTracer is installed) --------

    def _trace_open_instance(
        self, instance: Instance, batch, message: Propose, leader: str
    ) -> None:
        tracer = self.sim.tracer
        if tracer is None or not tracer.enabled:
            return
        if batch is not None and batch.requests:
            tids = tuple(request_trace_id(r) for r in batch.requests)
            primary, extra = tids[0], tids[1:]
        else:
            # Empty (gap-filling) batch: no request to derive an id from.
            primary, extra = f"cid:{message.cid}@{self.address}", ()
        span = tracer.begin(
            "consensus",
            primary,
            process=self.address,
            trace_ids=extra,
            cid=message.cid,
            epoch=message.epoch,
            leader=leader,
            batch=len(batch.requests) if batch is not None else 0,
        )
        write = tracer.begin(
            "consensus.write", primary, parent=span, process=self.address
        )
        instance.obs = {"span": span, "write": write, "accept": None, "wait": None}

    def _trace_abort_instance(self, instance: Instance) -> None:
        obs, instance.obs = instance.obs, None
        tracer = self.sim.tracer
        if obs is None or tracer is None:
            return
        for key in ("write", "accept", "wait", "span"):
            span = obs.get(key)
            if span is not None:
                tracer.end(span, aborted=True)

    def _validate_batch(self, message: Propose) -> RequestBatch | None:
        """Decode and authenticate a proposed batch (Byzantine leader guard).

        The leader's own Propose object carries the batch it encoded
        (``_BATCH_ATTR``), which stands in for the decode only for that
        exact value object; a re-proposal or copy is decoded. Either way
        every request is checked. Besides signatures and duplicates,
        per-client sequence numbers must be increasing *within* the
        batch: a Byzantine leader that reorders one client's requests
        would otherwise make the executor's sequence-based dedup silently
        censor the displaced ones.
        """
        value = message.value
        memo = message.__dict__.get(_BATCH_ATTR)
        if memo is not None and memo[0] is value:
            batch = memo[1]
        else:
            try:
                batch = decode(value)
            except DecodeError:
                return None
            if not isinstance(batch, RequestBatch):
                return None
        highest: dict[str, int] = {}
        for request in batch.requests:
            if not isinstance(request, ClientRequest) or request.unordered:
                return None
            previous = highest.get(request.client_id)
            if previous is not None and request.sequence <= previous:
                return None  # duplicate or out-of-order within the batch
            highest[request.client_id] = request.sequence
            if not self._verify_request(request):
                return None
        return batch

    @property
    def future_share(self) -> int:
        """Messages one member may have held in ``_future_buffer``.

        A correct member sends at most one PROPOSE, WRITE and ACCEPT per
        slot and regency, and only slots up to ``future_window`` ahead are
        held, so its live traffic never reaches this share; a flooding
        member only fills its own.
        """
        return 3 * self.future_window

    def _buffer_future(self, message, sender: str) -> None:
        """Hold a message for a near-future slot.

        The gap is still reported to state transfer — the buffered
        messages only help once the missing prefix is installed (they are
        the live traffic a recovering replica would otherwise keep
        missing while it chases a moving target).
        """
        self.state_transfer.notice_gap(message.cid)
        self._hold_future(message, sender)

    def _hold_future(self, message, sender: str) -> None:
        if message.cid > self.next_cid + self.future_window:
            return  # too far ahead to be worth holding
        held = self.future_held.get(sender, 0)
        if held >= self.future_share:
            return
        self.future_held[sender] = held + 1
        self._future_buffer.setdefault(message.cid, []).append((message, sender))
        # Keep the buffer from accumulating stale entries.
        self._drop_stale_future()

    def _drop_stale_future(self) -> None:
        for cid in [c for c in self._future_buffer if c < self.next_cid]:
            self._unhold(self._future_buffer.pop(cid))

    def _unhold(self, entries: list) -> None:
        held = self.future_held
        for _message, sender in entries:
            held[sender] -= 1

    def _hold_epoch_ahead(self, message, sender: str) -> None:
        """Hold a consensus message of a regency ahead of ours while a
        transfer runs.

        A replica that recovered at an older regency adopts the live one
        from the transfer's ``f+1`` replies (``after_install`` then
        replays what was held), instead of dropping every message of the
        slots in flight and chasing them with another transfer. Not
        while draining: a replayed message the install left ahead is
        stale.
        """
        if (
            message.epoch > self.regency
            and self.state_transfer.in_progress
            and not self._draining_future
            and self.view.contains(sender)
        ):
            self._hold_future(message, sender)

    def _drain_future(self) -> None:
        """Replay buffered messages that moved inside the pipeline window."""
        if self._draining_future:
            return
        self._draining_future = True
        try:
            while True:
                self._drop_stale_future()
                window_end = self.next_cid + self.config.pipeline_depth
                ready = sorted(c for c in self._future_buffer if c < window_end)
                if not ready:
                    return
                for cid in ready:
                    batch = self._future_buffer.pop(cid, None)
                    if batch is None:
                        continue
                    self._unhold(batch)
                    for message, sender in batch:
                        self._dispatch_table[type(message)](self, message, sender)
        finally:
            self._draining_future = False

    def on_propose(self, message: Propose, sender: str) -> None:
        if message.cid < self.next_cid:
            return  # old slot, already decided
        if message.cid >= self.next_cid + self.config.pipeline_depth:
            self._buffer_future(message, sender)
            return
        if message.epoch != self.regency:
            self._hold_epoch_ahead(message, sender)
            return
        if sender != self.leader:
            return
        instance = self._instance(message.cid, message.epoch)
        if instance.decided:
            # Decided here but not yet released (a lower cid is still
            # open). A new regency may legitimately re-propose the slot
            # for the peers that missed the decision; re-echo our votes
            # iff the value matches what we decided — never two values.
            if digest(message.value) != instance.decided_digest:
                return
            if instance.proposal_value is not None:
                return
            batch = instance.decided_batch
        elif instance.proposal_value is not None:
            return
        else:
            batch = self._validate_batch(message)
            if batch is None:
                if message.value != b"":
                    # Malformed or forged batch: suspect the leader.
                    self.synchronizer.suspect("invalid")
                    return
            elif self._unproposed:
                self._note_proposed(batch.requests)
            self._trace_open_instance(instance, batch, message, sender)
        value_digest = instance.set_proposal(
            message.value, message.timestamp, batch=batch
        )
        instance.write_sent = True
        write = WriteMsg(
            cid=message.cid,
            epoch=message.epoch,
            value_digest=value_digest,
        )
        self.channel.broadcast(self.other_replicas(), write)
        instance.add_write(self.address, value_digest)
        self._advance_instance(instance)

    def _note_proposed(self, requests) -> None:
        """Take a valid PROPOSE's requests out of the pool, timing each.

        Every request found pooled that arrived after the last forward
        or regency install feeds its arrival -> PROPOSE delay into the
        turnaround estimate (TCP's smoothed-RTT gain, 1/8): a forwarded
        request's delay is this follower's own patience, and would feed
        it back. On the leader its own batch has left the pool already:
        no sample.
        """
        pool = self._unproposed
        now = self.sim.now
        floor = self._forwarded[1]
        turnaround = self._turnaround
        for request in requests:
            entry = pool.pop(request.key(), None)
            if entry is not None and entry[1] > floor:
                turnaround += (now - entry[1] - turnaround) / 8
        self._turnaround = turnaround

    def _on_vote(self, message: WriteMsg | AcceptMsg, sender: str) -> None:
        """A member's WRITE or ACCEPT for a slot inside the window."""
        if message.cid < self.next_cid:
            return
        if message.epoch != self.regency:
            self._hold_epoch_ahead(message, sender)
            return
        if message.cid >= self.next_cid + self.config.pipeline_depth:
            self._buffer_future(message, sender)
            return
        if not self.view.contains(sender):
            return
        instance = self._instance(message.cid, message.epoch)
        if type(message) is WriteMsg:
            instance.add_write(sender, message.value_digest)
        else:
            instance.add_accept(sender, message.value_digest)
        self._advance_instance(instance)

    def _advance_instance(self, instance: Instance) -> None:
        if instance.proposal_digest is None:
            return
        if not instance.accept_sent and instance.has_write_quorum(
            self.view.consensus_quorum
        ):
            instance.accept_sent = True
            obs, tracer = instance.obs, self.sim.tracer
            if obs is not None and tracer is not None:
                tracer.end(obs["write"], votes=len(instance.writes))
                obs["accept"] = tracer.begin(
                    "consensus.accept",
                    obs["span"].trace_id,
                    parent=obs["span"],
                    process=self.address,
                )
            accept = AcceptMsg(
                cid=instance.cid,
                epoch=instance.epoch,
                value_digest=instance.proposal_digest,
            )
            self.channel.broadcast(self.other_replicas(), accept)
            instance.add_accept(self.address, instance.proposal_digest)
        if (
            not instance.decided
            and instance.accept_sent
            and instance.has_accept_quorum(self.view.consensus_quorum)
        ):
            instance.decide()
            obs, tracer = instance.obs, self.sim.tracer
            if obs is not None and tracer is not None:
                if obs["accept"] is not None:
                    tracer.end(obs["accept"], votes=len(instance.accepts))
                tracer.end(obs["span"], decided=True)
            self._on_decided(instance)

    # ------------------------------------------------------------------
    # decision and execution
    # ------------------------------------------------------------------

    def _on_decided(self, instance: Instance) -> None:
        self.stats["decided"] += 1
        if instance.cid != self.next_cid:
            # Decided ahead of the execution head: the instance stays in
            # ``instances`` until every lower cid decided too.
            self.stats["decided_out_of_order"] += 1
            obs, tracer = instance.obs, self.sim.tracer
            if obs is not None and tracer is not None:
                obs["wait"] = tracer.begin(
                    "consensus.pipeline_wait",
                    obs["span"].trace_id,
                    parent=obs["span"],
                    process=self.address,
                    cid=instance.cid,
                )
            head = self.instances.get(self.next_cid)
            if head is None or head.proposal_value is None:
                # We never even saw the head's PROPOSE — the prefix
                # decided while we were away, and if the group now goes
                # quiet no further traffic would reveal the gap.
                self.state_transfer.notice_gap(instance.cid)
        self._release_decided()
        self._drain_future()
        self._maybe_propose()

    def after_install(self) -> None:
        """Rejoin the live protocol after state transfer moved the head
        or adopted a regency.

        Releases the decided instances the install unblocked, replays the
        consensus traffic buffered while it ran, and lets a leader
        propose again.
        """
        self._release_decided()
        self._drain_future()
        self._maybe_propose()

    def _release_decided(self) -> None:
        """Deliver buffered decisions strictly in cid order."""
        while True:
            head = self.instances.get(self.next_cid)
            if head is None or not head.decided:
                return
            self._deliver_decision(head)

    def _deliver_decision(self, instance: Instance) -> None:
        cid = instance.cid
        value = instance.decided_value
        timestamp = instance.decided_timestamp
        del self.instances[cid]
        obs, tracer = instance.obs, self.sim.tracer
        if obs is not None and tracer is not None and obs["wait"] is not None:
            tracer.end(obs["wait"])
        if self.storage is not None:
            fsynced = self.storage.on_decided(cid, value, timestamp)
            if obs is not None and tracer is not None:
                tracer.point(
                    "wal.append",
                    obs["span"].trace_id,
                    parent=obs["span"],
                    process=self.address,
                    trace_ids=obs["span"].trace_ids,
                    cid=cid,
                    fsynced=bool(fsynced),
                )
        # The batch was decoded during validation: no second decode.
        self.enqueue_decided(cid, value, timestamp, instance.decided_batch)
        self.synchronizer.on_decision()
        if self.state_transfer.recovering:
            self.state_transfer.after_decision(cid)

    def enqueue_decided(
        self, cid: int, value: bytes, timestamp: float, batch=None
    ) -> None:
        """Hand one decided log entry to the executor.

        The one path from a decision to execution: live consensus, the
        WAL tail of a disk restart and both state-transfer shapes all
        arrive here in cid order. The entry joins the decided log, its
        requests leave the pending pools, and the executor receives
        ``(install epoch, cid, requests, timestamp)`` — the same entry
        on every path, hence the same context at every replica.
        """
        self.decision_log.append((cid, value, timestamp))
        self.last_decided = cid
        self.next_cid = cid + 1
        if value == b"":
            return  # an empty gap-filling batch: nothing to execute
        if batch is None:
            batch = decode(value)
        for request in batch.requests:
            key = request.key()
            self.pending.pop(key, None)
            self._unproposed.pop(key, None)
            if request.operation.startswith(RECONFIG_MARKER):
                self._reconfig_cid = cid
        self._exec_channel.put((self._install_epoch, cid, batch.requests, timestamp))

    def install_checkpoint(self, checkpoint_cid: int, blob: bytes) -> None:
        """Replace the replica's state with a checkpoint blob.

        The service snapshot and both dedup tables come from ``blob``
        (see :meth:`_snapshot_blob`); the decided log restarts empty
        after ``checkpoint_cid``. The install epoch moves on, so any
        executor backlog queued before the install — which would corrupt
        the dedup table and skip parts of the replay that follows — is
        dropped.
        """
        self._install_epoch += 1
        service_snapshot, dedup_table = decode(blob)
        self.service.install_snapshot(service_snapshot)
        self._last_executed_seq = dict(dedup_table)
        # Align the dispatcher's dedup view with the installed state:
        # pre-checkpoint requests must be skipped, replayed ones must pass.
        self._dispatched_seq = dict(dedup_table)
        self.last_reply.clear()
        self.checkpoint_cid = self.executed_cid = checkpoint_cid
        self.checkpoint_snapshot = blob
        self.decision_log = []
        self.last_decided = checkpoint_cid
        # Proposing restarts at the installed head.
        self.next_cid = self.next_propose_cid = checkpoint_cid + 1

    def skip_execution_to(self, checkpoint_cid: int, blob: bytes) -> None:
        """Let a trailing executor jump to a verified checkpoint.

        For a replica that decided past ``checkpoint_cid`` but has not
        executed that far (a new incarnation still replaying its WAL and
        transferred log while it already votes): the checkpoint replaces
        the state, the backlog queued before it is dropped, and this
        replica's own decided entries above it are queued again. The
        consensus head and open instances do not move.
        """
        tail = [entry for entry in self.decision_log if entry[0] > checkpoint_cid]
        propose_head = self.next_propose_cid
        self.install_checkpoint(checkpoint_cid, blob)
        for cid, value, timestamp in tail:
            self.enqueue_decided(cid, value, timestamp)
        self.next_propose_cid = propose_head
        if self.storage is not None:
            self.storage.on_checkpoint(checkpoint_cid, blob)

    def _executor(self):
        """The single execution thread, in decided order — the
        determinism bottleneck of §IV-C(b)."""
        while True:
            self._executing = False
            epoch, cid, requests, timestamp = yield self._exec_channel.get()
            self._executing = True
            self._maybe_propose()  # one batch fewer waiting: a hold may lift
            if epoch != self._install_epoch:
                continue  # stale: queued before a checkpoint install
            for order, request in enumerate(requests):
                if epoch != self._install_epoch:
                    break  # an install landed mid-batch
                if not self._dedup_dispatch(request):
                    continue
                tracer = self.sim.tracer
                span = None
                if tracer is not None and tracer.enabled:
                    span = tracer.begin(
                        "request.execute",
                        tracer.for_request(request),
                        process=self.address,
                        cid=cid,
                        order=order,
                    )
                cost = self.service.cost_of(request.operation)
                if cost > 0:
                    yield self.sim.timeout(cost)
                if epoch != self._install_epoch:
                    if span is not None:
                        tracer.end(span, aborted=True)
                    break  # an install landed during the cost wait
                self._execute_one(cid, order, request, timestamp)
                if span is not None:
                    tracer.end(span)
                post = self.service.post_cost()
                if post > 0:
                    yield self.sim.timeout(post)
            if epoch != self._install_epoch:
                continue
            self.executed_cid = cid
            if (cid + 1) % self.config.checkpoint_interval == 0:
                self._take_checkpoint(cid)
            if cid == self._reconfig_cid:
                self._maybe_propose()  # the new membership is in effect

    def _dedup_dispatch(self, request: ClientRequest) -> bool:
        """Deterministic at-dispatch dedup (dispatch order = decided order)."""
        last = self._dispatched_seq.get(request.client_id, -1)
        if request.sequence <= last:
            return False
        self._dispatched_seq[request.client_id] = request.sequence
        return True

    def _execute_one(
        self, cid: int, order: int, request: ClientRequest, timestamp: float
    ) -> None:
        last = self._last_executed_seq.get(request.client_id, -1)
        if request.sequence <= last:
            return  # duplicate delivered through replay
        context = MessageContext(
            cid=cid,
            order=order,
            timestamp=timestamp,
            client_id=request.client_id,
            sequence=request.sequence,
            replica=self.address,
        )
        if request.operation.startswith(RECONFIG_MARKER):
            result = self._apply_reconfiguration(request.operation)
        else:
            try:
                result = self.service.execute(request.operation, context)
            except Exception as exc:  # deterministic service error
                result = encode(("error", str(exc)))
        self._last_executed_seq[request.client_id] = request.sequence
        self.stats["executed"] += 1
        reply = Reply(
            client_id=request.client_id,
            sequence=request.sequence,
            result=result,
            view_id=self.view.view_id,
            regency=self.regency,
        )
        cached = self.last_reply.get(request.client_id)
        if cached is None or cached[0] != cid:
            cached = self.last_reply[request.client_id] = (cid, {})
        cached[1][request.sequence] = reply
        self.stats["replies"] += 1
        if self.active:
            self._send_reply(request.reply_to, reply)

    def _send_reply(self, to: str, reply: Reply) -> None:
        """Send a reply to a client, through the behaviour's reply hook."""
        if self.behaviour is not None:
            reply = self.behaviour.on_reply(self, reply)
            if reply is None:
                return
        self.channel.send(to, reply)

    def _snapshot_blob(self) -> bytes:
        """Service snapshot plus the client dedup table, as one blob.

        The dedup table is replica metadata that must travel with the
        service state: a recovering replica that installed state without
        it would re-execute retransmitted requests.
        """
        return encode(
            (
                self.service.snapshot(),
                tuple(sorted(self._last_executed_seq.items())),
            )
        )

    def _take_checkpoint(self, cid: int) -> None:
        self.checkpoint_cid = cid
        self.checkpoint_snapshot = self._snapshot_blob()
        self.decision_log = [entry for entry in self.decision_log if entry[0] > cid]
        self.stats["checkpoints"] += 1
        if self.storage is not None:
            self.storage.on_checkpoint(cid, self.checkpoint_snapshot)

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
        if self.storage is None:
            return None
        recovered = self.storage.recover()
        self.recovered_from_disk = recovered
        if recovered.damaged:
            return recovered
        if recovered.snapshot is not None:
            self.install_checkpoint(recovered.checkpoint_cid, recovered.snapshot)
        for cid, value, timestamp in recovered.entries:
            self.enqueue_decided(cid, value, timestamp)
        self.next_propose_cid = self.next_cid
        return recovered

    # ------------------------------------------------------------------
    # reconfiguration
    # ------------------------------------------------------------------

    def _apply_reconfiguration(self, operation: bytes) -> bytes:
        try:
            # Decode through a memoryview window past the marker — the
            # codec reads buffers directly, so the operation tail is
            # never copied into an intermediate bytes object.
            reconfig = decode(memoryview(operation)[len(RECONFIG_MARKER):])
        except DecodeError:
            return encode(("error", "malformed reconfiguration"))
        if not isinstance(reconfig, ReconfigRequest):
            return encode(("error", "malformed reconfiguration"))
        payload = encode((reconfig.admin, reconfig.join, reconfig.leave, reconfig.new_f))
        signature = Signature(reconfig.admin, reconfig.signature)
        if reconfig.admin != "admin" or not self.verifier.verify(signature, payload):
            return encode(("error", "unauthorized reconfiguration"))
        addresses = [a for a in self.view.addresses if a not in reconfig.leave]
        addresses.extend(a for a in reconfig.join if a not in addresses)
        if (
            tuple(addresses) == self.view.addresses
            and reconfig.new_f == self.view.f
        ):
            # Idempotent replay: a replica bootstrapped with the post-change
            # view re-executes this command during state-transfer replay;
            # the membership is already in effect, so keep the view id.
            return encode(("ok", self.view.view_id))
        try:
            new_view = View(self.view.view_id + 1, tuple(addresses), reconfig.new_f)
        except ValueError as exc:
            return encode(("error", str(exc)))
        leader = self.leader
        self.view = new_view
        self.synchronizer.on_view_change()
        if self.leader != leader:
            # A new leader by membership, as after a regency change.
            self.reset_unproposed()
        if not new_view.contains(self.address):
            self.halt()
        return encode(("ok", new_view.view_id))

    # ------------------------------------------------------------------
    # asynchronous push (server -> client)
    # ------------------------------------------------------------------

    def push(self, client_id: str, stream: str, order: tuple, payload: bytes) -> None:
        """Send an asynchronous message to a client-side listener."""
        if not self.active:
            return
        if self.behaviour is not None:
            payload = self.behaviour.on_push(self, client_id, stream, order, payload)
            if payload is None:
                return
        message = PushMessage(
            client_id=client_id,
            stream=stream,
            order=order,
            payload=payload,
        )
        self.stats["pushes"] += 1
        self.channel.send(client_id, message)

    # ------------------------------------------------------------------
    # watchdog: forward, then suspect (Prime's turnaround rule)
    # ------------------------------------------------------------------

    def _patience(self) -> float:
        """How long a follower gives the leader: ``PATIENCE_TURNAROUNDS``
        measured turnarounds, capped at ``request_timeout``."""
        return min(
            PATIENCE_TURNAROUNDS * self._turnaround, self.config.request_timeout
        )

    def _leader_may_hold(self) -> bool:
        """Could a correct leader be withholding PROPOSEs right now?

        It holds while decided batches wait for its executor
        (``_held_back``) or while its pipeline window is full. Every
        correct replica executes the same decided batches at the same
        modelled cost, so this replica's own executor backlog mirrors the
        leader's, and the instances it holds a PROPOSE for are the
        leader's window. Votes alone open an instance here too, but count
        for nothing: a leader's WRITE without its PROPOSE buys no pause.
        """
        if self._executing or len(self._exec_channel) > 0:
            return True
        depth = self.config.pipeline_depth
        instances = self.instances
        return len(instances) >= depth and (
            sum(i.proposal_value is not None for i in instances.values()) >= depth
        )

    def _silence_deadline(self):
        """``(instant, suspect)``: when this follower next forwards its
        oldest unproposed request (``suspect`` False) or suspects the
        leader (True); ``None`` while the rule does not apply.

        The request may wait one patience past ``max(arrival,
        last_progress)`` before it is forwarded, and the leader one more
        patience past the forward (or the latest progress) before it is
        suspected. Once this replica's STOP is out, a repeat (which
        re-broadcasts it) waits at least the quarter-timeout tick.
        """
        if not self._unproposed or self._leader_may_hold() or self.is_leader:
            return None
        key, (_request, arrival) = next(iter(self._unproposed.items()))
        patience = self._patience()
        forwarded = self._forwarded
        if forwarded[0] != key:
            return max(arrival, self.last_progress) + patience, False
        if self.synchronizer.vote_outstanding:
            patience = max(patience, self.config.request_timeout / 4)
        return max(forwarded[1], self.last_progress) + patience, True

    def _watch_silence(self) -> None:
        """Forward, then suspect, once the silence deadline has passed.

        Evaluated on every watchdog wake-up and whenever requests join a
        follower's pool, never on a timer of its own: under traffic the
        forward follows the deadline by at most one inter-arrival gap,
        and the watchdog wakes exactly at the suspicion deadline of a
        request it forwarded.
        """
        if self.synchronizer.in_progress or self.state_transfer.in_progress:
            return
        deadline = self._silence_deadline()
        now = self.sim.now
        if deadline is None or now <= deadline[0]:
            return
        if self._drop_dispatched():
            deadline = self._silence_deadline()
            if deadline is None or now <= deadline[0]:
                return
        if deadline[1]:
            self.synchronizer.suspect("silent")
            self._forwarded = (self._forwarded[0], now)
        else:
            self._forward_unproposed()

    def _drop_dispatched(self) -> bool:
        """Drop the oldest pooled requests the executor already dispatched.

        A retransmission that arrives after its request was decided but
        before it was dispatched is pooled again, and no leader will ever
        propose it. The rule acts only while the executor is idle, so by
        then every decided request is dispatched and such a leftover is
        at or below its client's dispatched sequence. True if any went.
        """
        pool, dispatched = self._unproposed, self._dispatched_seq
        dropped = False
        while pool:
            key, (request, _arrival) = next(iter(pool.items()))
            if request.sequence > dispatched.get(request.client_id, -1):
                break
            del pool[key]
            self.pending.pop(key, None)
            dropped = True
        return dropped

    def _forward_unproposed(self) -> None:
        """Hand the leader the oldest unproposed requests (≤ ``batch_max``)
        in one envelope: a client may have left it out of its multicast."""
        keys = list(islice(self._unproposed, self.config.batch_max))
        self._forwarded = (keys[0], self.sim.now)
        envelope = RequestBatch(
            requests=tuple(self._unproposed[key][0] for key in keys)
        )
        self.channel.send(self.leader, envelope)

    def _watchdog_sleep(self) -> float:
        """Seconds until the suspicion predicate is next worth evaluating.

        A quarter of ``request_timeout`` — except when a deadline comes
        first: the backstop's (the oldest pending request ages out and
        the group completes a full timeout without progress) or the
        suspicion deadline of a request this follower forwarded. Then
        the deadline itself, so the watchdog acts the instant its
        predicate turns true. In steady state neither is nearer than the
        tick (nothing is ever forwarded), and the watchdog only ticks.
        """
        timeout = self.config.request_timeout
        now = self.sim.now
        wake = timeout / 4
        deadline = self._silence_deadline()
        if deadline is not None and deadline[1] and 0 <= deadline[0] - now < wake:
            # The predicate's comparisons are strict: wake just after.
            wake = deadline[0] - now + _DEADLINE_MARGIN
        if self.pending:
            _request, oldest = next(iter(self.pending.values()))
            lapse = max(oldest, self.last_progress) + timeout - now
            if 0 <= lapse < wake:
                wake = lapse + _DEADLINE_MARGIN
        return wake

    def _watchdog(self):
        while True:
            yield self.sim.timeout(self._watchdog_sleep())
            if not self.active:
                return  # halted (removed or rejuvenated): stop ticking
            if self.synchronizer.in_progress or self.state_transfer.in_progress:
                continue  # escalation is handled by the sync timer
            self._watch_silence()
            now = self.sim.now
            if now - self.last_progress <= self.config.request_timeout:
                continue
            aged = False
            if self.pending:
                key, (_request, oldest) = next(iter(self.pending.items()))
                aged = now - oldest > self.config.request_timeout
                if aged:
                    self.synchronizer.suspect(
                        "silent" if key in self._unproposed else "stalled"
                    )
            if self.instances and (aged or not self.pending):
                # Consensus slots we opened never resolved — with
                # pipelining the rest of the group may have decided them
                # and gone quiet (our quorum messages were lost), in
                # which case no further traffic reveals the gap and only
                # a state transfer can. If instead the whole group is
                # stalled, the probe aborts on stale replies and the
                # suspicion above drives the leader change.
                self.state_transfer.notice_gap(max(self.instances), force=True)

    # ------------------------------------------------------------------
    # dispatch table
    # ------------------------------------------------------------------

    #: type -> handler(replica, message, envelope sender). A request
    #: names its client in its own signed ``client_id`` (it is relayed
    #: inside proposals), so request handlers ignore the envelope.
    _dispatch_table = {
        ClientRequest: lambda self, m, _sender: self._on_client_request(m),
        RequestBatch: lambda self, m, _sender: self._on_request_envelope(m),
        Propose: on_propose,
        WriteMsg: _on_vote,
        AcceptMsg: _on_vote,
        Stop: lambda self, m, s: self.synchronizer.on_stop(m, s),
        StopData: lambda self, m, s: self.synchronizer.on_stop_data(m, s),
        Sync: lambda self, m, s: self.synchronizer.on_sync(m, s),
        StateRequest: lambda self, m, s: self.state_transfer.on_request(m, s),
        StateReply: lambda self, m, s: self.state_transfer.on_reply(m, s),
    }
