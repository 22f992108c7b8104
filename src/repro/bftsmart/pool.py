"""The request pool: admission, the silence rule and the watchdog.

Mod-SMaRt's client manager and request timer. Every replica verifies,
deduplicates and pools the client requests it receives; the entries no
valid PROPOSE carried yet are what a leader batches from and what a
follower holds the leader to. A follower gives the leader a patience of
a few measured arrival -> PROPOSE turnarounds (Prime's rule): its oldest
unproposed request is forwarded to the leader after one patience, and
the leader is suspected after one more. ``request_timeout`` is the
backstop for a request that was proposed but never decided.
"""

from __future__ import annotations

import typing
from itertools import islice

from repro.bftsmart.messages import ClientRequest, RequestBatch, request_signing_payload
from repro.crypto import Signature

if typing.TYPE_CHECKING:
    from repro.bftsmart.replica import ServiceReplica

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


class Pool:
    """One replica's verified, undecided client requests."""

    def __init__(self, replica: "ServiceReplica") -> None:
        self.replica = replica
        #: request key -> (request, arrival time); insertion-ordered, so
        #: the first entry is the oldest undecided request.
        self.pending: dict[tuple, tuple] = {}
        #: The entries of ``pending`` no valid PROPOSE carried yet, in the
        #: same order, on every replica: the pool a leader batches from,
        #: and what a follower holds the leader to. A regency or state
        #: install puts everything undecided back (``reset_unproposed``).
        self.unproposed: dict[tuple, tuple] = {}
        #: Smoothed arrival -> PROPOSE delay of the requests a PROPOSE took
        #: from ``unproposed``. Before the first sample, patience is an
        #: eighth of ``request_timeout``: with no traffic to notice it
        #: sooner, the forward lands on the next quarter-timeout tick.
        self._turnaround = replica.config.request_timeout / (8 * PATIENCE_TURNAROUNDS)
        #: ``(key, instant)``: the oldest unproposed request when this
        #: follower last forwarded it to the leader (or suspected the
        #: leader over it), and when; ``key`` is ``None`` after a regency
        #: install. Requests that arrived by ``instant`` waited on a
        #: forward or a leader change, not on the leader's turnaround, and
        #: are not sampled.
        self._forwarded: tuple = (None, -float("inf"))

    # -- admission ---------------------------------------------------------

    def verify_request(self, request: ClientRequest) -> bool:
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
        payload, signed = request_signing_payload(request)
        return self.replica.verifier.verify(signature, payload, signed)

    def on_request(self, request: ClientRequest, _sender: str) -> None:
        # A request names its client in its own signed ``client_id`` (it
        # is relayed inside proposals): the envelope sender is ignored.
        if self._admit(request):
            self._on_pooled()

    def on_envelope(self, envelope: RequestBatch, sender: str) -> None:
        """Requests one client handed over in one instant.

        Each takes the per-request path, and the leader considers
        proposing once, after the last, so they share a PROPOSE whatever
        the jitter between them. A follower forwarding a client's
        requests to the leader sends the same envelope, and a leader
        answering a follower's fetch too (see
        :meth:`~repro.bftsmart.acceptor.Acceptor.on_fetched`). One holding
        more than one PROPOSE may carry (or no tuple at all) comes from no
        honest sender: it is dropped whole and counted once.
        """
        replica = self.replica
        requests = envelope.requests
        if not isinstance(requests, tuple) or len(requests) > replica.config.batch_max:
            replica.stats["rejected_requests"] += 1
            return
        if replica.acceptor.unresolved and sender == replica.leader:
            replica.acceptor.on_fetched(requests)
            return
        admitted = False
        for request in requests:
            if isinstance(request, ClientRequest):
                admitted |= self._admit(request)
            else:
                replica.stats["rejected_requests"] += 1
        if admitted:
            self._on_pooled()

    def _on_pooled(self) -> None:
        """New requests joined the pool: a leader considers proposing, a
        follower whether the leader outstayed its patience (traffic is
        how a follower notices a silent leader between watchdog ticks)."""
        self.replica.proposer.maybe_propose()
        self._watch_silence()

    def _admit(self, request: ClientRequest) -> bool:
        """Verify, deduplicate and pool one request; True if it was pooled."""
        if not self.verify_request(request):
            self.replica.stats["rejected_requests"] += 1
            return False
        return self.add(request)

    def add(self, request: ClientRequest) -> bool:
        """Deduplicate and pool one verified request; True if it was pooled."""
        executor = self.replica.executor
        if request.unordered:
            executor.execute_unordered(request)
            return False
        if executor.answered(request):
            return False
        key = request.key()
        if key in self.pending:
            return False
        self.pending[key] = self.unproposed[key] = (request, self.replica.sim.now)
        return True

    # -- the leader's pool -------------------------------------------------

    def reset_unproposed(self) -> None:
        """Return every undecided request to the leader's pool, and drop
        the PROPOSEs held for a fetch: they were the old leader's."""
        self.unproposed = dict(self.pending)
        self._forwarded = (None, self.replica.sim.now)
        self.replica.acceptor.unresolved.clear()

    def take(self, limit: int) -> list:
        """Move the oldest ``limit`` unproposed requests out of the pool."""
        pool = self.unproposed
        keys = list(islice(pool, limit))
        return [pool.pop(key)[0] for key in keys]

    def forget(self, requests) -> None:
        """Decided requests leave the pool."""
        pending, unproposed = self.pending, self.unproposed
        for request in requests:
            key = request.key()
            pending.pop(key, None)
            unproposed.pop(key, None)

    def note_proposed(self, requests) -> None:
        """Take a valid PROPOSE's requests out of the pool, timing each.

        Every request found pooled that arrived after the last forward
        or regency install feeds its arrival -> PROPOSE delay into the
        turnaround estimate (TCP's smoothed-RTT gain, 1/8): a forwarded
        request's delay is this follower's own patience, and would feed
        it back. On the leader its own batch has left the pool already:
        no sample.
        """
        pool = self.unproposed
        if not pool:
            return
        now = self.replica.sim.now
        floor = self._forwarded[1]
        turnaround = self._turnaround
        for request in requests:
            entry = pool.pop(request.key(), None)
            if entry is not None and entry[1] > floor:
                turnaround += (now - entry[1] - turnaround) / 8
        self._turnaround = turnaround

    # -- forward, then suspect (Prime's turnaround rule) -------------------

    def patience(self) -> float:
        """How long a follower gives the leader: ``PATIENCE_TURNAROUNDS``
        measured turnarounds, capped at ``request_timeout``."""
        return min(
            PATIENCE_TURNAROUNDS * self._turnaround, self.replica.config.request_timeout
        )

    def _leader_may_hold(self) -> bool:
        """Could a correct leader be withholding PROPOSEs right now?

        It holds while decided batches wait for its executor
        (``Proposer._held_back``) or while its pipeline window is full.
        Every correct replica executes the same decided batches at the
        same modelled cost, so this replica's own executor backlog
        mirrors the leader's, and the instances it holds a PROPOSE for
        are the leader's window. Votes alone open an instance here too,
        but count for nothing: a leader's WRITE without its PROPOSE buys
        no pause.
        """
        replica = self.replica
        executor = replica.executor
        if executor.executing or executor.queue:
            return True
        depth = replica.config.pipeline_depth
        instances = replica.acceptor.instances
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
        replica = self.replica
        if not self.unproposed or self._leader_may_hold() or replica.is_leader:
            return None
        key, (_request, arrival) = next(iter(self.unproposed.items()))
        patience = self.patience()
        forwarded = self._forwarded
        if forwarded[0] != key:
            return max(arrival, replica.last_progress) + patience, False
        if replica.synchronizer.vote_outstanding:
            patience = max(patience, replica.config.request_timeout / 4)
        return max(forwarded[1], replica.last_progress) + patience, True

    def _watch_silence(self) -> None:
        """Forward, then suspect, once the silence deadline has passed.

        Evaluated on every watchdog wake-up and whenever requests join a
        follower's pool, never on a timer of its own: under traffic the
        forward follows the deadline by at most one inter-arrival gap,
        and the watchdog wakes exactly at the suspicion deadline of a
        request it forwarded.
        """
        replica = self.replica
        if replica.synchronizer.in_progress or replica.state_transfer.in_progress:
            return
        deadline = self._silence_deadline()
        now = replica.sim.now
        if deadline is None or now <= deadline[0]:
            return
        if self._drop_dispatched():
            deadline = self._silence_deadline()
            if deadline is None or now <= deadline[0]:
                return
        if deadline[1]:
            replica.synchronizer.suspect("silent")
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
        pool, dispatched = self.unproposed, self.replica.executor.dispatched
        dropped = False
        while pool:
            key, (request, _arrival) = next(iter(pool.items()))
            if not dispatched(request):
                break
            del pool[key]
            self.pending.pop(key, None)
            dropped = True
        return dropped

    def _forward_unproposed(self) -> None:
        """Hand the leader the oldest unproposed requests (≤ ``batch_max``)
        in one envelope: a client may have left it out of its multicast."""
        replica = self.replica
        keys = list(islice(self.unproposed, replica.config.batch_max))
        self._forwarded = (keys[0], replica.sim.now)
        envelope = RequestBatch(
            requests=tuple(self.unproposed[key][0] for key in keys)
        )
        replica.channel.send(replica.leader, envelope)

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
        replica = self.replica
        timeout = replica.config.request_timeout
        now = replica.sim.now
        wake = timeout / 4
        deadline = self._silence_deadline()
        if deadline is not None and deadline[1] and 0 <= deadline[0] - now < wake:
            # The predicate's comparisons are strict: wake just after.
            wake = deadline[0] - now + _DEADLINE_MARGIN
        if self.pending:
            _request, oldest = next(iter(self.pending.values()))
            lapse = max(oldest, replica.last_progress) + timeout - now
            if 0 <= lapse < wake:
                wake = lapse + _DEADLINE_MARGIN
        return wake

    def watch(self) -> None:
        """Start the watchdog, a process that sleeps between checks."""
        self.replica.sim.process(self._watchdog(), name=f"watchdog:{self.replica.address}")

    def _watchdog(self):
        replica = self.replica
        timeout = replica.config.request_timeout
        while True:
            yield replica.sim.timeout(self._watchdog_sleep())
            if not replica.active:
                return  # halted (removed or rejuvenated): stop ticking
            if replica.synchronizer.in_progress or replica.state_transfer.in_progress:
                continue  # escalation is handled by the sync timer
            self._watch_silence()
            if replica.acceptor.unresolved:
                replica.acceptor.chase_fetches()
            now = replica.sim.now
            if now - replica.last_progress <= timeout:
                continue
            aged = False
            if self.pending:
                key, (_request, oldest) = next(iter(self.pending.items()))
                aged = now - oldest > timeout
                if aged:
                    replica.synchronizer.suspect(
                        "silent" if key in self.unproposed else "stalled"
                    )
            if replica.acceptor.instances and (aged or not self.pending):
                # Consensus slots we opened never resolved — with
                # pipelining the rest of the group may have decided them
                # and gone quiet (our quorum messages were lost), in
                # which case no further traffic reveals the gap and only
                # a state transfer can. If instead the whole group is
                # stalled, the probe aborts on stale replies and the
                # suspicion above drives the leader change.
                replica.state_transfer.notice_gap(max(replica.acceptor.instances), force=True)
