"""The proposer: what a leader batches, when, and how it names it.

A leader takes the oldest unproposed requests from its pool, opens the
next free consensus slot inside its pipeline window and sends a PROPOSE
that names each request by its ``(client_id, sequence)`` key plus the
value's digest; each follower rebuilds the value from its own pool
(:mod:`repro.bftsmart.acceptor`). A follower that cannot asks the leader
with a :class:`FetchRequests`, which the leader answers once per
follower, slot and regency. Backpressure holds the pool while decided
batches queue in front of the leader's executor.
"""

from __future__ import annotations

import typing

from repro.bftsmart.consensus import Proposal
from repro.bftsmart.messages import FetchRequests, Propose, RequestBatch
from repro.crypto import digest
from repro.wire import encode, record, recorded

if typing.TYPE_CHECKING:
    from repro.bftsmart.replica import ServiceReplica

#: Record a leader keeps on its own :class:`Propose`, keyed by the
#: proposed request objects: ``(value, batch)``, the
#: :class:`RequestBatch` the PROPOSE names and its encoding. A follower
#: whose pool resolves every key to the very request object in ``batch``
#: takes ``value`` instead of encoding the batch again.
BATCH = "_batch_memo"


def propose_by_reference(
    cid: int, epoch: int, requests: tuple, timestamp: float
) -> Propose:
    """The PROPOSE naming ``requests``, carrying its value's record."""
    batch = RequestBatch(requests=requests)
    value = encode(batch)
    propose = Propose(
        cid=cid,
        epoch=epoch,
        keys=tuple(request.key() for request in requests),
        value_digest=digest(value),
        timestamp=timestamp,
    )
    record(propose, BATCH, (value, batch), requests)
    return propose


def request_keys(keys, limit: int) -> bool:
    """Is ``keys`` a tuple of at most ``limit`` distinct ``(client_id,
    sequence)`` pairs — the one shape a PROPOSE or a fetch names
    requests in?"""
    if type(keys) is not tuple or len(keys) > limit:
        return False
    for key in keys:
        if (
            type(key) is not tuple
            or len(key) != 2
            or type(key[0]) is not str
            or type(key[1]) is not int
        ):
            return False
    return len(set(keys)) == len(keys)


class Proposer:
    """Batching and proposing for one replica, while it leads."""

    def __init__(self, replica: "ServiceReplica") -> None:
        self.replica = replica
        self._batch_timer_armed = False
        self._hold_timer_armed = False

    def _pipeline_full(self) -> bool:
        """Has the leader exhausted its window of open consensus slots?"""
        replica = self.replica
        head = max(replica.next_propose_cid, replica.next_cid)
        return head >= replica.next_cid + replica.config.pipeline_depth

    def _held_back(self) -> bool:
        """Backpressure: is ordering waiting for this leader's executor?

        Opening an instance whose batch would only queue behind the
        executor buys nothing — the requests ride in a later, larger
        PROPOSE at the same execution instant, for a fraction of the
        PROPOSE/WRITE/ACCEPT traffic. So a leader holds its pool while
        all four hold:

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
        replica = self.replica
        now = replica.sim.now
        return (
            len(replica.executor.queue) >= 2
            and now >= replica.synchronizer.synced_at + replica.config.request_timeout
            and not replica.state_transfer.recovering
            and now < self._hold_lapses()
        )

    def _hold_lapses(self) -> float:
        """When the oldest unproposed request has waited out a hold."""
        _request, arrival = next(iter(self.replica.pool.unproposed.values()))
        return arrival + self.replica.config.request_timeout / 4

    def _hold_timer_fired(self) -> None:
        self._hold_timer_armed = False
        self.maybe_propose()

    def maybe_propose(self, batch_waited: bool = False) -> None:
        replica = self.replica
        if not (replica.active and replica.is_leader):
            return
        if replica.synchronizer.in_progress or replica.state_transfer.in_progress:
            return
        if replica.executed_cid < replica.executor.reconfig_cid:
            # The next instance runs under the membership the decided
            # reconfiguration installs; a PROPOSE sent before it is in
            # effect would miss a joining member.
            return
        config = replica.config
        pool = replica.pool
        while not (self._pipeline_full() or self._batch_timer_armed):
            unproposed = len(pool.unproposed)
            if not unproposed:
                return
            if self._held_back():
                if not self._hold_timer_armed:
                    # now + (lapse - now) may land an ulp short of the
                    # lapse; the re-armed difference is then exact.
                    self._hold_timer_armed = True
                    replica.sim.defer(
                        self._hold_lapses() - replica.sim.now, self._hold_timer_fired
                    )
                return
            if batch_waited or unproposed >= config.batch_max or config.batch_wait <= 0:
                replica._propose_batch()
                batch_waited = False
                continue
            self._batch_timer_armed = True
            replica.sim.defer(config.batch_wait, replica._batch_timer_fired)
            return

    def batch_timer_fired(self) -> None:
        self._batch_timer_armed = False
        self.maybe_propose(batch_waited=True)

    def propose(self, batch: list, cid: int | None = None) -> None:
        """Propose ``batch`` for slot ``cid`` (default: the next free one)."""
        replica = self.replica
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
        if cid is None:
            cid = max(replica.next_propose_cid, replica.next_cid)
        tracer = replica.sim.tracer
        if tracer is not None and tracer.enabled:
            # One pending span per request: arrival at the leader through
            # inclusion in this proposal (the batching wait of §IV).
            for request in batch:
                entry = replica.pool.pending.get(request.key())
                arrival = entry[1] if entry is not None else replica.sim.now
                tracer.end(
                    tracer.begin(
                        "request.pending",
                        tracer.for_request(request),
                        process=replica.address,
                        start=arrival,
                        cid=cid,
                    )
                )
        requests = tuple(batch)
        propose = propose_by_reference(cid, replica.regency, requests, replica.sim.now)
        replica.next_propose_cid = max(replica.next_propose_cid, cid + 1)
        stats = replica.stats
        stats["proposals"] += 1
        occupancy = replica.next_propose_cid - replica.next_cid
        stats["pipeline_occupancy_sum"] += occupancy
        stats["pipeline_occupancy_samples"] += 1
        if occupancy > stats["pipeline_occupancy_peak"]:
            stats["pipeline_occupancy_peak"] = occupancy
        replica.channel.broadcast(replica.other_replicas(), propose)
        value, batch_message = recorded(propose, BATCH, requests)
        replica.acceptor.on_proposal(
            Proposal(cid, propose.epoch, value, propose.timestamp, batch_message),
            replica.address,
        )

    def answer_fetch(self, message: FetchRequests, sender: str) -> None:
        """A follower asks this leader for requests its PROPOSE named.

        Answered once per ``(follower, cid, regency)``, from the batch
        proposed for that slot, with a :class:`RequestBatch` of the
        requests it names. A fetch of another shape, for a slot outside
        the window, for a regency this replica did not propose in, or
        repeated, is dropped and counted as a rejected envelope: a
        Byzantine follower gets no more out of a leader than one answer.
        """
        replica = self.replica
        cid = message.cid
        instance = replica.acceptor.instances.get(cid) if type(cid) is int else None
        if (
            instance is None
            or instance.epoch != message.epoch
            or instance.proposal_batch is None
            or replica.view.leader_for(instance.epoch) != replica.address
            or sender in instance.fetched_by
            or not replica.view.contains(sender)
            or not request_keys(message.keys, replica.config.batch_max)
        ):
            replica.channel.rejected += 1
            return
        instance.fetched_by.add(sender)
        wanted = set(message.keys)
        replica._send_fetched(
            sender,
            tuple(
                request
                for request in instance.proposal_batch.requests
                if request.key() in wanted
            ),
        )
