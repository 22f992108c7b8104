"""Byzantine replica behaviours for tests and fault drills.

Each behaviour subclasses :class:`ServiceReplica` and perverts exactly one
aspect of the protocol. With ``n >= 3f + 1`` honest-majority quorums, a
single Byzantine replica (f=1) must not be able to break safety — the
integration tests assert that clients still obtain correct, quorum-backed
results with each of these in the group. They know the protocol, not the
application: the one SCADA-aware behaviour, forging field readings, is
``repro.chaos.schedule.FalsifyingReplica``.
"""

from __future__ import annotations

from repro.bftsmart.messages import Propose, Reply, RequestBatch
from repro.bftsmart.replica import ServiceReplica
from repro.wire import encode


class SilentReplica(ServiceReplica):
    """Crash-like behaviour: receives everything, says nothing."""

    def _on_network_message(self, payload, src: str) -> None:
        return


class LyingReplica(ServiceReplica):
    """Executes correctly but replies with corrupted results.

    Clients must out-vote it: its replies never reach the f+1 matching
    quorum because the other replicas agree with each other.
    """

    def _execute_one(self, cid, order, request, timestamp) -> None:
        super()._execute_one(cid, order, request, timestamp)
        # Overwrite the honest reply with a corrupted one.
        honest = self._last_reply.get(request.client_id)
        if honest is None or not self.active:
            return
        lie = Reply(
            replica=self.address,
            client_id=honest.client_id,
            sequence=honest.sequence,
            result=b"\xde\xad" + honest.result,
            view_id=honest.view_id,
            regency=honest.regency,
        )
        self.channel.send(request.reply_to, lie)


class EquivocatingLeader(ServiceReplica):
    """A leader that proposes different batches to different replicas.

    The WRITE quorum (which requires matching digests from a Byzantine
    quorum) prevents both values from deciding; the request timeout then
    replaces this leader through the synchronization phase.
    """

    def _propose_batch(self) -> None:
        batch = self._take_batch()
        others = self.other_replicas()
        half = len(others) // 2
        value_a = encode(RequestBatch(requests=tuple(batch)))
        value_b = encode(RequestBatch(requests=tuple(reversed(batch))))
        for group, value in ((others[:half], value_a), (others[half:], value_b)):
            propose = Propose(
                sender=self.address,
                cid=self.next_cid,
                epoch=self.regency,
                value=value,
                timestamp=self.sim.now,
            )
            for receiver in group:
                self.channel.send(receiver, propose)
        self.stats["proposals"] += 1


class StutteringReplica(ServiceReplica):
    """Participates in agreement but never sends replies or pushes.

    Weaker than :class:`SilentReplica`: it helps liveness of consensus
    while starving clients of its vote; clients still reach f+1 via the
    other replicas.
    """

    def _execute_one(self, cid, order, request, timestamp) -> None:
        was_active = self.active
        self.active = False  # suppresses the reply send
        try:
            super()._execute_one(cid, order, request, timestamp)
        finally:
            self.active = was_active

    def push(self, client_id, stream, order, payload) -> None:
        return
