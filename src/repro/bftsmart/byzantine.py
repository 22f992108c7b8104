"""Byzantine replica behaviours for tests and fault drills.

A :class:`Behaviour` is a value set on a live replica
(``replica.behaviour = Lying()``; ``None`` is honest), and each one below
perverts exactly one aspect of the protocol through its hooks. With
``n >= 3f + 1`` honest-majority quorums, a single Byzantine replica (f=1)
must not be able to break safety — the integration tests assert that
clients still obtain correct, quorum-backed results with each of these in
the group. They know the protocol, not the application: the one
SCADA-aware behaviour, forging field readings, is
``repro.chaos.schedule.Falsifying``.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bftsmart.consensus import Proposal
from repro.bftsmart.messages import Reply, RequestBatch
from repro.bftsmart.proposer import propose_by_reference
from repro.crypto import digest
from repro.wire import encode


class Behaviour:
    """The misbehaviour seam of :class:`~repro.bftsmart.replica.ServiceReplica`.

    Each hook gets the replica and what its honest path is about to handle
    or send, and returns what that path goes on with; ``None`` stops it.
    The base class changes nothing.
    """

    def on_ingress(self, replica, payload, src: str):
        """An inbound network payload, before it is opened."""
        return payload

    def on_propose(self, replica, batch: list):
        """The requests a leader just took from its pool to propose."""
        return batch

    def on_fetch(self, replica, requests: tuple):
        """The requests a leader is about to send a follower that fetched
        them from one of its PROPOSEs."""
        return requests

    def on_reply(self, replica, reply: Reply):
        """A reply about to be sent on any of the three reply paths."""
        return reply

    def on_push(self, replica, client_id: str, stream: str, order, payload: bytes):
        """The payload of a push about to be sent to ``client_id``."""
        return payload


class Silent(Behaviour):
    """Crash-like behaviour: receives everything, says nothing."""

    def on_ingress(self, replica, payload, src: str):
        return None


class Lying(Behaviour):
    """Executes correctly but corrupts the result of every reply it sends.

    Clients must out-vote it: its replies never reach the f+1 matching
    quorum because the other replicas agree with each other.
    """

    def on_reply(self, replica, reply: Reply):
        return replace(reply, result=b"\xde\xad" + reply.result)


class Equivocating(Behaviour):
    """A leader that proposes different batches to different replicas.

    The WRITE quorum (which requires matching digests from a Byzantine
    quorum) prevents both values from deciding; the request timeout then
    replaces this leader through the synchronization phase.
    """

    def on_propose(self, replica, batch: list):
        others = replica.other_replicas()
        half = len(others) // 2
        for group, requests in ((others[:half], batch), (others[half:], batch[::-1])):
            propose = propose_by_reference(
                replica.next_cid, replica.regency, tuple(requests), replica.sim.now
            )
            for receiver in group:
                replica.channel.send(receiver, propose)
        replica.stats["proposals"] += 1
        return None


class Withholding(Behaviour):
    """A leader that proposes honestly but never answers a fetch.

    A follower that lacks a proposed request cannot rebuild the value and
    never WRITEs it, so when too many lack it the instance cannot decide.
    The requests left waiting in the followers' pools (a client's
    retransmission brings them) then trip the silence rule, and the
    followers replace this leader.
    """

    def on_fetch(self, replica, requests: tuple):
        return None


class Misdigesting(Behaviour):
    """A leader whose PROPOSE declares a digest its requests do not hash
    to, while it keeps the genuine batch for itself.

    Every follower's pool rebuilds another value, so each fetches all
    keys; the leader answers with the genuine requests, which still do
    not hash to the declared digest: first-hand evidence, and each
    follower suspects the leader as ``invalid``.
    """

    def on_propose(self, replica, batch: list):
        cid = max(replica.next_propose_cid, replica.next_cid)
        replica.next_propose_cid = cid + 1
        propose = propose_by_reference(
            cid, replica.regency, tuple(batch), replica.sim.now
        )
        lie = replace(propose, value_digest=digest(propose.value_digest))
        replica.channel.broadcast(replica.other_replicas(), lie)
        value = encode(RequestBatch(requests=tuple(batch)))
        replica.acceptor.on_proposal(
            Proposal(cid, propose.epoch, value, propose.timestamp), replica.address
        )
        replica.stats["proposals"] += 1
        return None


class Slow(Behaviour):
    """A leader that proposes every batch just under ``request_timeout``
    late: no request ever ages past the timeout on its account, yet every
    operation waits most of a second (the performance attack Prime and
    Aardvark bound). Each batch keeps the slot an honest leader would
    have given it, and is dropped if the leadership moved meanwhile (the
    new regency re-pools its requests).
    """

    #: Share of ``request_timeout`` each PROPOSE is held back.
    delay_share = 0.9

    def on_propose(self, replica, batch: list):
        cid = max(replica.next_propose_cid, replica.next_cid)
        replica.next_propose_cid = cid + 1
        regency = replica.regency

        def release() -> None:
            if replica.active and replica.regency == regency and replica.is_leader:
                replica.proposer.propose(batch, cid)

        replica.sim.defer(self.delay_share * replica.config.request_timeout, release)
        return None


class Stuttering(Behaviour):
    """Participates in agreement but never sends replies or pushes.

    Weaker than :class:`Silent`: it helps liveness of consensus while
    starving clients of its vote; clients still reach f+1 via the other
    replicas.
    """

    def on_reply(self, replica, reply: Reply):
        return None

    def on_push(self, replica, client_id: str, stream: str, order, payload: bytes):
        return None
