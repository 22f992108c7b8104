"""The acceptor: VP-Consensus (PROPOSE -> WRITE -> ACCEPT) for one replica.

Every proposal reaches :meth:`Acceptor._on_value` by value: the
leader's own, a SYNC re-proposal, or a PROPOSE by reference whose keys
this replica resolved from its pool (or fetched from the leader) and
whose rebuilt value matches the declared digest. A valid value is
WRITE-voted; a quorum of WRITEs sends the ACCEPT, a quorum of ACCEPTs
decides, and decided instances are released to the executor strictly in
cid order. Consensus traffic for slots just past the pipeline window is
buffered and replayed once the window reaches it.
"""

from __future__ import annotations

import typing
from operator import attrgetter

from repro.bftsmart.consensus import Instance, Proposal
from repro.bftsmart.messages import (
    AcceptMsg,
    ClientRequest,
    FetchRequests,
    Propose,
    RequestBatch,
    WriteMsg,
)
from repro.bftsmart.proposer import BATCH, request_keys
from repro.crypto import digest
from repro.obs.trace import request_trace_id
from repro.wire import DecodeError, decode, encode, record, recorded, same_encoding

if typing.TYPE_CHECKING:
    from repro.bftsmart.replica import ServiceReplica

#: Consensus messages for slots at most this far ahead of ``next_cid``
#: are buffered until this replica catches up (a recovering replica would
#: otherwise chase a moving target forever); slots further ahead trigger
#: state transfer instead.
FUTURE_WINDOW = 64

#: Messages one member may have held in the future buffer. A correct
#: member sends at most one PROPOSE, WRITE and ACCEPT per slot and
#: regency, and only slots up to ``FUTURE_WINDOW`` ahead are held, so its
#: live traffic never reaches this share; a flooding member only fills
#: its own.
FUTURE_SHARE = 3 * FUTURE_WINDOW

#: Records the first replica to vote on a slot keeps on the slot's
#: :class:`RequestBatch`: its :class:`WriteMsg` (``WRITE``) and its
#: :class:`AcceptMsg` (``ACCEPT``). Every correct replica holds that very
#: batch (a follower's :meth:`Acceptor._rebuild` takes the leader's
#: ``BATCH`` record) and votes byte-identically, so a later replica sends
#: the recorded vote — whose encoding its channel already memoized —
#: whenever its own ``(cid, epoch, value_digest)`` passes
#: :func:`~repro.wire.same_encoding` against the record's, and builds
#: (and records) its own otherwise.
WRITE = "_write_memo"
ACCEPT = "_accept_memo"
_VOTE_FIELDS = attrgetter("cid", "epoch", "value_digest")


def _vote(kind: type, name: str, instance: Instance, value_digest: bytes, batch):
    """This replica's ``kind`` vote for ``instance``: the one recorded on
    ``batch`` under ``name`` when it encodes like ours, else a new one
    (recorded there when there is a batch)."""
    fields = (instance.cid, instance.epoch, value_digest)
    if batch is None:
        return kind(*fields)
    vote = recorded(batch, name)
    if vote is not None and same_encoding(_VOTE_FIELDS(vote), fields):
        return vote
    return record(batch, name, kind(*fields))


class _Held:
    """A PROPOSE a follower could not rebuild, waiting for the leader's
    answer to its fetch."""

    __slots__ = ("message", "fetched", "asked_at")

    def __init__(self, message: Propose) -> None:
        self.message = message
        #: key -> verified request the leader's answer carried.
        self.fetched: dict = {}
        self.asked_at = -float("inf")


class Acceptor:
    """The consensus instances of one replica's pipeline window."""

    def __init__(self, replica: "ServiceReplica") -> None:
        self.replica = replica
        #: cid -> open :class:`Instance`. Decided-but-unreleased instances
        #: stay here until every lower cid decided too — execution (and
        #: the deterministic §IV-C timestamps) is strictly in cid order
        #: regardless of decision order.
        self.instances: dict[int, Instance] = {}
        self._future_buffer: dict[int, list] = {}
        #: member -> messages of it in the future buffer (at most
        #: ``FUTURE_SHARE``).
        self.future_held: dict[str, int] = {}
        self._draining_future = False
        #: cid -> :class:`_Held`: PROPOSEs of the current leader this
        #: follower is fetching requests for (at most one per open slot).
        self.unresolved: dict[int, _Held] = {}

    def _instance(self, cid: int, epoch: int) -> Instance:
        instance = self.instances.get(cid)
        if instance is None:
            instance = Instance(cid, epoch)
            self.instances[cid] = instance
        elif epoch > instance.epoch:
            self._trace_abort_instance(instance)
            instance.advance_epoch(epoch)
        return instance

    # -- tracing hooks (no-ops unless a SpanTracer is installed) -----------

    def _trace_open_instance(self, instance: Instance, batch, leader: str) -> None:
        replica = self.replica
        tracer = replica.sim.tracer
        if tracer is None or not tracer.enabled:
            return
        if batch is not None and batch.requests:
            tids = tuple(request_trace_id(r) for r in batch.requests)
            primary, extra = tids[0], tids[1:]
        else:
            # Empty (gap-filling) batch: no request to derive an id from.
            primary, extra = f"cid:{instance.cid}@{replica.address}", ()
        span = tracer.begin(
            "consensus",
            primary,
            process=replica.address,
            trace_ids=extra,
            cid=instance.cid,
            epoch=instance.epoch,
            leader=leader,
            batch=len(batch.requests) if batch is not None else 0,
        )
        write = tracer.begin(
            "consensus.write", primary, parent=span, process=replica.address
        )
        instance.obs = {"span": span, "write": write, "accept": None, "wait": None}

    def _trace_abort_instance(self, instance: Instance) -> None:
        obs, instance.obs = instance.obs, None
        tracer = self.replica.sim.tracer
        if obs is None or tracer is None:
            return
        for key in ("write", "accept", "wait", "span"):
            span = obs.get(key)
            if span is not None:
                tracer.end(span, aborted=True)

    def _validate_batch(self, value: bytes, batch=None) -> RequestBatch | None:
        """Decode and authenticate a proposed batch (Byzantine leader guard).

        ``batch`` is the value's :class:`RequestBatch` when the proposal
        came with it (the leader's own, or a PROPOSE resolved from the
        pool); a SYNC re-proposal is decoded. Either way every request is
        checked. Besides signatures and duplicates, per-client sequence
        numbers must be increasing *within* the batch: a Byzantine leader
        that reorders one client's requests would otherwise make the
        executor's sequence-based dedup silently censor the displaced
        ones.
        """
        if batch is None:
            try:
                batch = decode(value)
            except DecodeError:
                return None
            if not isinstance(batch, RequestBatch):
                return None
        verify = self.replica.pool.verify_request
        highest: dict[str, int] = {}
        for request in batch.requests:
            if not isinstance(request, ClientRequest) or request.unordered:
                return None
            previous = highest.get(request.client_id)
            if previous is not None and request.sequence <= previous:
                return None  # duplicate or out-of-order within the batch
            highest[request.client_id] = request.sequence
            if not verify(request):
                return None
        return batch

    # -- the future buffer -------------------------------------------------

    def _buffer_future(self, message, sender: str) -> None:
        """Hold a message for a near-future slot.

        The gap is still reported to state transfer — the buffered
        messages only help once the missing prefix is installed (they are
        the live traffic a recovering replica would otherwise keep
        missing while it chases a moving target).
        """
        self.replica.state_transfer.notice_gap(message.cid)
        self._hold_future(message, sender)

    def _hold_future(self, message, sender: str) -> None:
        if message.cid > self.replica.next_cid + FUTURE_WINDOW:
            return  # too far ahead to be worth holding
        held = self.future_held.get(sender, 0)
        if held >= FUTURE_SHARE:
            return
        self.future_held[sender] = held + 1
        self._future_buffer.setdefault(message.cid, []).append((message, sender))
        # Keep the buffer from accumulating stale entries.
        self._drop_stale_future()

    def _drop_stale_future(self) -> None:
        next_cid = self.replica.next_cid
        for cid in [c for c in self._future_buffer if c < next_cid]:
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
        replica = self.replica
        if (
            message.epoch > replica.synchronizer.regency
            and replica.state_transfer.in_progress
            and not self._draining_future
            and replica.view.contains(sender)
        ):
            self._hold_future(message, sender)

    def _drain_future(self) -> None:
        """Replay buffered messages that moved inside the pipeline window."""
        if self._draining_future or not self._future_buffer:
            return
        replica = self.replica
        self._draining_future = True
        try:
            while True:
                self._drop_stale_future()
                window_end = replica.next_cid + replica.config.pipeline_depth
                ready = sorted(c for c in self._future_buffer if c < window_end)
                if not ready:
                    return
                for cid in ready:
                    batch = self._future_buffer.pop(cid, None)
                    if batch is None:
                        continue
                    self._unhold(batch)
                    for message, sender in batch:
                        replica.dispatch[type(message)](message, sender)
        finally:
            self._draining_future = False

    def _in_window(self, message, sender: str) -> bool:
        """Is a proposal for an open slot of this regency, from its
        leader? One for a later slot or regency is held for replay."""
        replica = self.replica
        if message.cid < replica.next_cid:
            return False  # old slot, already decided
        if message.cid >= replica.next_cid + replica.config.pipeline_depth:
            self._buffer_future(message, sender)
            return False
        regency = replica.synchronizer.regency
        if message.epoch != regency:
            self._hold_epoch_ahead(message, sender)
            return False
        return sender == replica.view.leader_for(regency)

    # -- PROPOSE by reference and its fetch path ---------------------------

    def on_propose(self, message: Propose, sender: str) -> None:
        """The leader's PROPOSE by reference.

        The keys are resolved from this replica's verified pool and the
        value rebuilt and checked against the declared digest; then it
        takes the by-value path like any proposal (:meth:`_on_value`).
        A PROPOSE whose keys this replica cannot resolve, or that rebuild
        another digest, is held while the leader is asked for them. One
        of another shape comes from no honest leader: it is dropped and
        counted as a rejected envelope.
        """
        replica = self.replica
        if (
            type(message.cid) is not int
            or type(message.epoch) is not int
            or type(message.value_digest) is not bytes
            or not request_keys(message.keys, replica.config.batch_max)
        ):
            replica.channel.rejected += 1
            return
        if not self._in_window(message, sender):
            return
        instance = self._instance(message.cid, message.epoch)
        if instance.decided:
            # A new regency's leader may propose a slot decided here but
            # not yet released: re-echo iff it is the value we decided.
            if message.value_digest == instance.decided_digest:
                self._on_value(
                    instance, instance.decided_value, message.timestamp, sender
                )
            return
        held = self.unresolved.get(message.cid)
        if instance.proposal_value is not None or (
            held is not None and held.message.epoch == message.epoch
        ):
            return
        pending = replica.pool.pending
        entries = [pending.get(key) for key in message.keys]
        proposal = None
        if None not in entries:
            proposal = self._rebuild(message, [entry[0] for entry in entries])
        if proposal is None:
            self._hold(message)
            return
        self._on_value(
            instance, proposal.value, message.timestamp, sender, proposal.batch
        )

    def _rebuild(self, message: Propose, requests: list) -> Proposal | None:
        """The :class:`Proposal` ``message`` names, from ``requests`` (one
        per key, in key order), or ``None`` if they rebuild a value of
        another digest.

        If every request is the very object in the leader's record
        (``BATCH``), the recorded value is byte-identical to their
        encoding by construction and is taken as it is.
        """
        memo = recorded(message, BATCH, requests)
        if memo is not None:
            value, batch = memo
        else:
            batch = RequestBatch(requests=tuple(requests))
            value = encode(batch)
        if digest(value) != message.value_digest:
            return None
        return Proposal(message.cid, message.epoch, value, message.timestamp, batch)

    def _hold(self, message: Propose) -> None:
        """Hold a PROPOSE this follower cannot rebuild (no WRITE) and ask
        the leader for its requests: all of them, so that one answer
        settles it — a request missing here and another body under a
        second key (one client can cause both) need no second round."""
        held = self.unresolved[message.cid] = _Held(message)
        self._fetch(held)

    def _fetch(self, held: _Held) -> None:
        replica = self.replica
        held.asked_at = replica.sim.now
        replica.fetches += 1
        message = held.message
        replica.channel.send(
            replica.leader,
            FetchRequests(cid=message.cid, epoch=message.epoch, keys=message.keys),
        )

    def _held_is_current(self, cid: int, held: _Held) -> bool:
        """Is a held PROPOSE still one this follower could WRITE?"""
        instance = self.instances.get(cid)
        return (
            held.message.epoch == self.replica.regency
            and cid >= self.replica.next_cid
            and instance is not None
            and instance.proposal_value is None
        )

    def on_fetched(self, requests: tuple) -> None:
        """The leader's answer to this follower's fetches.

        Each request takes the ordinary request path (verified, then
        pooled unless its key is pooled or executed already). A held
        PROPOSE is rebuilt from the answer alone once it carries every
        key; if that does not produce the declared digest either, the
        leader named requests that do not hash to its own digest:
        first-hand evidence, so it is suspected (``invalid``).
        """
        replica = self.replica
        pool = replica.pool
        verified = {}
        for request in requests:
            if (
                isinstance(request, ClientRequest)
                and not request.unordered
                and pool.verify_request(request)
            ):
                verified[request.key()] = request
                pool.add(request)
            else:
                replica.stats["rejected_requests"] += 1
        for cid, held in list(self.unresolved.items()):
            if self.unresolved.get(cid) is not held:
                continue  # settled while an earlier one was taken
            if not self._held_is_current(cid, held):
                del self.unresolved[cid]
                continue
            message, fetched = held.message, held.fetched
            for key in message.keys:
                request = verified.get(key)
                if request is not None:
                    fetched[key] = request
            if len(fetched) < len(message.keys):
                continue  # not (or not yet) answered
            del self.unresolved[cid]
            proposal = self._rebuild(message, [fetched[key] for key in message.keys])
            if proposal is None:
                replica.synchronizer.suspect("invalid")
            else:
                self._on_value(
                    self.instances[cid],
                    proposal.value,
                    message.timestamp,
                    replica.leader,
                    proposal.batch,
                )

    def chase_fetches(self) -> None:
        """Re-send a fetch the leader left unanswered for a patience: the
        fetch may have been lost (a leader answers each slot once, so a
        lost answer is not re-sent; the silence rule and the
        ``request_timeout`` backstop deal with a leader that never
        answers)."""
        patience = self.replica.pool.patience()
        now = self.replica.sim.now
        for cid, held in list(self.unresolved.items()):
            if not self._held_is_current(cid, held):
                del self.unresolved[cid]
            elif now > held.asked_at + patience:
                self._fetch(held)

    # -- WRITE / ACCEPT ----------------------------------------------------

    def on_proposal(self, proposal: Proposal, sender: str) -> None:
        """A proposal by value: the leader's own, or a SYNC re-proposal."""
        if self._in_window(proposal, sender):
            instance = self._instance(proposal.cid, proposal.epoch)
            self._on_value(
                instance, proposal.value, proposal.timestamp, sender, proposal.batch
            )

    def _on_value(
        self, instance: Instance, value: bytes, timestamp: float, sender: str,
        batch=None,
    ) -> None:
        """Validate a proposed value and WRITE it: the one path every
        proposal takes, whichever form it arrived in."""
        replica = self.replica
        if instance.decided:
            # Decided here but not yet released (a lower cid is still
            # open). A new regency may legitimately re-propose the slot
            # for the peers that missed the decision; re-echo our votes
            # iff the value matches what we decided — never two values.
            if digest(value) != instance.decided_digest:
                return
            if instance.proposal_value is not None:
                return
            batch = instance.decided_batch
        elif instance.proposal_value is not None:
            return
        else:
            batch = self._validate_batch(value, batch)
            if batch is None:
                if value != b"":
                    # Malformed or forged batch: suspect the leader.
                    replica.synchronizer.suspect("invalid")
                    return
            else:
                replica.pool.note_proposed(batch.requests)
            self._trace_open_instance(instance, batch, sender)
        value_digest = instance.set_proposal(value, timestamp, batch=batch)
        instance.write_sent = True
        write = _vote(WriteMsg, WRITE, instance, value_digest, batch)
        replica.channel.broadcast(replica.other_replicas(), write)
        instance.add_write(replica.address, value_digest)
        self._advance_instance(instance)

    def on_vote(self, message: WriteMsg | AcceptMsg, sender: str) -> None:
        """A member's WRITE or ACCEPT for a slot inside the window."""
        replica = self.replica
        cid = message.cid
        next_cid = replica.next_cid
        if cid < next_cid:
            return
        if message.epoch != replica.synchronizer.regency:
            self._hold_epoch_ahead(message, sender)
            return
        if cid >= next_cid + replica.config.pipeline_depth:
            self._buffer_future(message, sender)
            return
        if sender not in replica.view.addresses:
            return
        instance = self.instances.get(cid)
        if instance is None or instance.epoch != message.epoch:
            instance = self._instance(cid, message.epoch)
        # A WRITE counts until this replica ACCEPTs, an ACCEPT from then
        # until the slot decides; a vote outside its phase is only kept.
        if type(message) is WriteMsg:
            instance.writes.setdefault(sender, message.value_digest)
            if instance.accept_sent:
                return
        else:
            instance.accepts.setdefault(sender, message.value_digest)
            if not instance.accept_sent or instance.decided:
                return
        self._advance_instance(instance)

    def _advance_instance(self, instance: Instance) -> None:
        proposed = instance.proposal_digest
        if proposed is None:
            return
        replica = self.replica
        quorum = replica.view.consensus_quorum
        if not instance.accept_sent:
            if not instance.has_write_quorum(quorum):
                return
            instance.accept_sent = True
            obs, tracer = instance.obs, replica.sim.tracer
            if obs is not None and tracer is not None:
                tracer.end(obs["write"], votes=len(instance.writes))
                obs["accept"] = tracer.begin(
                    "consensus.accept",
                    obs["span"].trace_id,
                    parent=obs["span"],
                    process=replica.address,
                )
            accept = _vote(AcceptMsg, ACCEPT, instance, proposed, instance.proposal_batch)
            replica.channel.broadcast(replica.other_replicas(), accept)
            instance.add_accept(replica.address, proposed)
        if instance.decided:
            return
        if instance.has_accept_quorum(quorum):
            instance.decide()
            obs, tracer = instance.obs, replica.sim.tracer
            if obs is not None and tracer is not None:
                if obs["accept"] is not None:
                    tracer.end(obs["accept"], votes=len(instance.accepts))
                tracer.end(obs["span"], decided=True)
            self._on_decided(instance)

    # -- in-order release --------------------------------------------------

    def _on_decided(self, instance: Instance) -> None:
        replica = self.replica
        replica.stats["decided"] += 1
        if instance.cid != replica.next_cid:
            # Decided ahead of the execution head: the instance stays in
            # ``instances`` until every lower cid decided too.
            replica.stats["decided_out_of_order"] += 1
            obs, tracer = instance.obs, replica.sim.tracer
            if obs is not None and tracer is not None:
                obs["wait"] = tracer.begin(
                    "consensus.pipeline_wait",
                    obs["span"].trace_id,
                    parent=obs["span"],
                    process=replica.address,
                    cid=instance.cid,
                )
            head = self.instances.get(replica.next_cid)
            if head is None or head.proposal_value is None:
                # We never even saw the head's PROPOSE — the prefix
                # decided while we were away, and if the group now goes
                # quiet no further traffic would reveal the gap.
                replica.state_transfer.notice_gap(instance.cid)
        self.after_install()

    def after_install(self) -> None:
        """Release the decided instances at the head, replay the buffered
        consensus traffic now inside the window, and let a leader propose:
        the end of every decision, and how a replica rejoins the live
        protocol after state transfer moved the head or adopted a regency.
        """
        self._release_decided()
        self._drain_future()
        self.replica.proposer.maybe_propose()

    def _release_decided(self) -> None:
        """Deliver buffered decisions strictly in cid order."""
        while True:
            head = self.instances.get(self.replica.next_cid)
            if head is None or not head.decided:
                return
            self._deliver_decision(head)

    def _deliver_decision(self, instance: Instance) -> None:
        replica = self.replica
        cid = instance.cid
        value = instance.decided_value
        timestamp = instance.decided_timestamp
        del self.instances[cid]
        obs, tracer = instance.obs, replica.sim.tracer
        if obs is not None and tracer is not None and obs["wait"] is not None:
            tracer.end(obs["wait"])
        if replica.storage is not None:
            fsynced = replica.storage.on_decided(
                cid, value, timestamp, instance.decided_batch
            )
            if obs is not None and tracer is not None:
                tracer.point(
                    "wal.append",
                    obs["span"].trace_id,
                    parent=obs["span"],
                    process=replica.address,
                    trace_ids=obs["span"].trace_ids,
                    cid=cid,
                    fsynced=bool(fsynced),
                )
        # The batch was decoded during validation: no second decode.
        replica.executor.enqueue_decided(cid, value, timestamp, instance.decided_batch)
        replica.synchronizer.on_decision()
        if replica.state_transfer.recovering:
            replica.state_transfer.after_decision(cid)
