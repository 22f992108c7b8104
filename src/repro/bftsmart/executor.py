"""The executor: decided batches run one request at a time, in cid order.

The determinism bottleneck of §IV-C(b): one serial execution thread per
replica, modelled as a generator resumed from the kernel's ``defer``.
Every path from a decision to execution — live consensus, the WAL tail
of a disk restart and both state-transfer shapes — queues through
:meth:`Executor.enqueue_decided`. The executor replies to clients,
builds the pushes a request's execution emits, takes checkpoints and
applies reconfigurations.
"""

from __future__ import annotations

import typing
from collections import deque
from operator import attrgetter

from repro.bftsmart.messages import (
    BODY,
    ClientRequest,
    PushMessage,
    ReconfigRequest,
    Reply,
    body_of,
    record_body,
)
from repro.bftsmart.service import MessageContext
from repro.bftsmart.view import View
from repro.crypto import Signature
from repro.wire import (
    DecodeError,
    decode,
    encode,
    encode_cached,
    record,
    recorded,
    same_encoding,
)

if typing.TYPE_CHECKING:
    from repro.bftsmart.replica import ServiceReplica

#: Operations starting with this marker carry a ReconfigRequest.
RECONFIG_MARKER = b"\x00RECONFIG\x00"

#: Records the first replica to execute a :class:`ClientRequest` keeps on
#: it: its :class:`Reply` (``REPLY``) and the :class:`PushMessage` of each
#: push the execution emitted, in emission order (``PUSHES``). The n
#: replicas of a group execute that very request object (the channel
#: shares it), and correct ones build byte-identical outputs, so a later
#: replica sends the recorded object — whose encoding its channel already
#: memoized — whenever its own fields pass
#: :func:`~repro.wire.same_encoding` against the record's, and builds (and
#: records) its own otherwise.
REPLY = "_reply_memo"
PUSHES = "_push_memo"
_REPLY_FIELDS = attrgetter("client_id", "sequence", "result", "view_id", "regency")


def _push_message(client_id: str, stream: str, order: tuple, payload) -> PushMessage:
    """The :class:`PushMessage` of ``payload``: bytes, or a message that
    is encoded here and rides as its body record."""
    if isinstance(payload, bytes):
        return PushMessage(client_id, stream, order, payload)
    data = encode_cached(payload)
    message = PushMessage(client_id, stream, order, data)
    record_body(message, data, payload)
    return message


def _push_fields(message: PushMessage) -> tuple:
    """A push's fields, its recorded body standing for its payload."""
    payload = message.payload
    body = recorded(message, BODY, payload)
    return (
        message.client_id,
        message.stream,
        message.order,
        payload if body is None else body,
    )


class Executor:
    """The single execution thread of one replica."""

    def __init__(self, replica: "ServiceReplica") -> None:
        self.replica = replica
        #: Decided entries waiting for a busy executor, oldest first: the
        #: backlog the proposer's backpressure and the pool's silence rule
        #: read.
        self.queue: deque = deque()
        #: True while the executor waits for an entry and none is on its
        #: way (an entry for an idle executor skips the queue).
        self._exec_idle = False
        #: True while the executor works on an entry it took.
        self.executing = False
        #: The request the service is pricing or executing (its body and
        #: pushes are recorded on it), or None, and how many pushes that
        #: execution emitted.
        self._request = None
        self._pushed = 0
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
        #: cid of the latest decided batch carrying a reconfiguration.
        self.reconfig_cid = -1
        self._exec = self._executor()

    # -- what the pool asks ------------------------------------------------

    def dispatched(self, request: ClientRequest) -> bool:
        """Did the executor dispatch ``request`` (or a later one of its
        client) already?"""
        return request.sequence <= self._dispatched_seq.get(request.client_id, -1)

    def answered(self, request: ClientRequest) -> bool:
        """Was ``request`` executed already? Its reply is then sent again
        if this replica still holds it."""
        if request.sequence > self._last_executed_seq.get(request.client_id, -1):
            return False
        cached = self.last_reply.get(request.client_id)
        reply = cached[1].get(request.sequence) if cached is not None else None
        if reply is not None:
            self.replica._send_reply(request.reply_to, reply)
        return True

    # -- queueing decided entries ------------------------------------------

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
        replica = self.replica
        replica.decision_log.append((cid, value, timestamp))
        replica.last_decided = cid
        replica.next_cid = cid + 1
        if value == b"":
            return  # an empty gap-filling batch: nothing to execute
        if batch is None:
            batch = decode(value)
        replica.pool.forget(batch.requests)
        for request in batch.requests:
            if request.operation.startswith(RECONFIG_MARKER):
                self.reconfig_cid = cid
        entry = (self._install_epoch, cid, batch.requests, timestamp)
        if self._exec_idle:
            self._exec_idle = False
            replica.sim.defer(0.0, self.drive, entry)
        else:
            self.queue.append(entry)

    def install_checkpoint(self, checkpoint_cid: int, blob: bytes) -> None:
        """Replace the replica's state with a checkpoint blob.

        The service snapshot and both dedup tables come from ``blob``
        (see :meth:`snapshot_blob`); the decided log restarts empty
        after ``checkpoint_cid``. The install epoch moves on, so any
        executor backlog queued before the install — which would corrupt
        the dedup table and skip parts of the replay that follows — is
        dropped.
        """
        replica = self.replica
        self._install_epoch += 1
        service_snapshot, dedup_table = decode(blob)
        replica.service.install_snapshot(service_snapshot)
        self._last_executed_seq = dict(dedup_table)
        # Align the dispatcher's dedup view with the installed state:
        # pre-checkpoint requests must be skipped, replayed ones must pass.
        self._dispatched_seq = dict(dedup_table)
        self.last_reply.clear()
        replica.checkpoint_cid = replica.executed_cid = checkpoint_cid
        replica.checkpoint_snapshot = blob
        replica.decision_log = []
        replica.last_decided = checkpoint_cid
        # Proposing restarts at the installed head.
        replica.next_cid = replica.next_propose_cid = checkpoint_cid + 1

    def skip_execution_to(self, checkpoint_cid: int, blob: bytes) -> None:
        """Let a trailing executor jump to a verified checkpoint.

        For a replica that decided past ``checkpoint_cid`` but has not
        executed that far (a new incarnation still replaying its WAL and
        transferred log while it already votes): the checkpoint replaces
        the state, the backlog queued before it is dropped, and this
        replica's own decided entries above it are queued again. The
        consensus head and open instances do not move.
        """
        replica = self.replica
        tail = [entry for entry in replica.decision_log if entry[0] > checkpoint_cid]
        propose_head = replica.next_propose_cid
        self.install_checkpoint(checkpoint_cid, blob)
        for cid, value, timestamp in tail:
            self.enqueue_decided(cid, value, timestamp)
        replica.next_propose_cid = propose_head
        if replica.storage is not None:
            replica.storage.on_checkpoint(checkpoint_cid, blob)

    def recover_from_disk(self):
        """Install the newest durable checkpoint and queue the verified WAL
        tail (see :meth:`ServiceReplica.recover_from_disk`)."""
        replica = self.replica
        if replica.storage is None:
            return None
        recovered = replica.storage.recover()
        replica.recovered_from_disk = recovered
        if recovered.damaged:
            return recovered
        if recovered.snapshot is not None:
            self.install_checkpoint(recovered.checkpoint_cid, recovered.snapshot)
        for cid, value, timestamp in recovered.entries:
            self.enqueue_decided(cid, value, timestamp)
        replica.next_propose_cid = replica.next_cid
        return recovered

    # -- the execution thread ----------------------------------------------

    def drive(self, value) -> None:
        """Resume the executor with ``value`` and schedule its next step:
        the end of the modelled cost it yielded, or its next entry — the
        oldest queued one at this instant, or, with none queued, whatever
        :meth:`enqueue_decided` hands the idle executor next."""
        delay = self._exec.send(value)
        if delay is not None:
            self.replica.sim.defer(delay, self.drive, None)
        elif self.queue:
            self.replica.sim.defer(0.0, self.drive, self.queue.popleft())
        else:
            self._exec_idle = True

    def _executor(self):
        """The single execution thread, in decided order.

        Driven by :meth:`drive`: it yields the modelled cost it waits for
        (seconds), or ``None`` to take its next decided entry.
        """
        replica = self.replica
        service = replica.service
        while True:
            self.executing = False
            epoch, cid, requests, timestamp = yield None
            self.executing = True
            replica.proposer.maybe_propose()  # one batch fewer waiting: a hold may lift
            if epoch != self._install_epoch:
                continue  # stale: queued before a checkpoint install
            for order, request in enumerate(requests):
                if epoch != self._install_epoch:
                    break  # an install landed mid-batch
                # Deterministic at-dispatch dedup (dispatch order = decided order).
                dispatched = self._dispatched_seq
                if request.sequence <= dispatched.get(request.client_id, -1):
                    continue
                dispatched[request.client_id] = request.sequence
                tracer = replica.sim.tracer
                span = None
                if tracer is not None and tracer.enabled:
                    span = tracer.begin(
                        "request.execute",
                        tracer.for_request(request),
                        process=replica.address,
                        cid=cid,
                        order=order,
                    )
                self._request = request
                cost = service.cost_of(request.operation)
                self._request = None
                if cost > 0:
                    yield cost
                if epoch != self._install_epoch:
                    if span is not None:
                        tracer.end(span, aborted=True)
                    break  # an install landed during the cost wait
                replica._execute_one(cid, order, request, timestamp)
                if span is not None:
                    tracer.end(span)
                post = service.post_cost()
                if post > 0:
                    yield post
            if epoch != self._install_epoch:
                continue
            replica.executed_cid = cid
            if (cid + 1) % replica.config.checkpoint_interval == 0:
                self._take_checkpoint(cid)
            if cid == self.reconfig_cid:
                replica.proposer.maybe_propose()  # the new membership is in effect

    def execute_one(
        self, cid: int, order: int, request: ClientRequest, timestamp: float
    ) -> None:
        replica = self.replica
        last = self._last_executed_seq.get(request.client_id, -1)
        if request.sequence <= last:
            return  # duplicate delivered through replay
        context = MessageContext(
            cid=cid,
            order=order,
            timestamp=timestamp,
            client_id=request.client_id,
            sequence=request.sequence,
            replica=replica.address,
        )
        if request.operation.startswith(RECONFIG_MARKER):
            result = self._apply_reconfiguration(request.operation)
        else:
            self._request, self._pushed = request, 0
            try:
                result = replica.service.execute(request.operation, context)
            except Exception as exc:  # deterministic service error
                result = encode(("error", str(exc)))
            finally:
                self._request = None
        self._last_executed_seq[request.client_id] = request.sequence
        replica.stats["executed"] += 1
        reply = self._reply_to(request, result)
        cached = self.last_reply.get(request.client_id)
        if cached is None or cached[0] != cid:
            cached = self.last_reply[request.client_id] = (cid, {})
        cached[1][request.sequence] = reply
        replica.stats["replies"] += 1
        if replica.active:
            replica._send_reply(request.reply_to, reply)

    def execute_unordered(self, request: ClientRequest) -> None:
        replica = self.replica
        tracer = replica.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.point(
                "request.execute",
                tracer.for_request(request),
                process=replica.address,
                unordered=True,
            )
        self._request = request
        try:
            result = replica.service.execute_unordered(request.operation)
        except Exception as exc:  # deterministic failure -> error reply
            result = encode(("error", str(exc)))
        finally:
            self._request = None
        replica._send_reply(request.reply_to, self._reply_to(request, result))

    # -- what an execution sends -------------------------------------------

    def _reply_to(self, request: ClientRequest, result: bytes) -> Reply:
        """This replica's :class:`Reply` to ``request``: the one recorded on
        the request when its fields encode like ours (``REPLY``)."""
        replica = self.replica
        fields = (
            request.client_id,
            request.sequence,
            result,
            replica.view.view_id,
            replica.regency,
        )
        reply = recorded(request, REPLY)
        if reply is not None and same_encoding(_REPLY_FIELDS(reply), fields):
            return reply
        return record(request, REPLY, Reply(*fields))

    def decoded(self, operation: bytes):
        """The message ``operation`` encodes.

        While this replica prices or executes a request and ``operation``
        is that request's field, the message is the request's body record
        (``BODY``), which the first replica to decode it leaves there for
        the rest of the group. Raises :class:`~repro.wire.DecodeError`
        like :func:`~repro.wire.decode`.
        """
        request = self._request
        if request is None or request.operation is not operation:
            return decode(operation)
        message = body_of(request, operation)
        if BODY not in request.__dict__:
            record_body(request, operation, message)
        return message

    def push_message(self, fields: tuple) -> PushMessage:
        """The :class:`PushMessage` of a push with ``fields``. The k-th
        push emitted while a request executes reuses the k-th one
        recorded on the request when its fields (the body standing for
        the payload) encode like ours (``PUSHES``)."""
        request = self._request
        if request is None:
            return _push_message(*fields)
        records = recorded(request, PUSHES)
        if records is None:
            records = record(request, PUSHES, [])
        index = self._pushed
        self._pushed = index + 1
        if index == len(records):
            message = _push_message(*fields)
            records.append(message)
            return message
        message = records[index]
        if not same_encoding(_push_fields(message), fields):
            message = records[index] = _push_message(*fields)
        return message

    # -- checkpoints -------------------------------------------------------

    def snapshot_blob(self) -> bytes:
        """Service snapshot plus the client dedup table, as one blob.

        The dedup table is replica metadata that must travel with the
        service state: a recovering replica that installed state without
        it would re-execute retransmitted requests.
        """
        return encode(
            (
                self.replica.service.snapshot(),
                tuple(sorted(self._last_executed_seq.items())),
            )
        )

    def _take_checkpoint(self, cid: int) -> None:
        replica = self.replica
        replica.checkpoint_cid = cid
        replica.checkpoint_snapshot = self.snapshot_blob()
        replica.decision_log = [entry for entry in replica.decision_log if entry[0] > cid]
        replica.stats["checkpoints"] += 1
        if replica.storage is not None:
            replica.storage.on_checkpoint(cid, replica.checkpoint_snapshot)

    # -- reconfiguration ---------------------------------------------------

    def _apply_reconfiguration(self, operation: bytes) -> bytes:
        replica = self.replica
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
        if reconfig.admin != "admin" or not replica.verifier.verify(signature, payload):
            return encode(("error", "unauthorized reconfiguration"))
        view = replica.view
        addresses = [a for a in view.addresses if a not in reconfig.leave]
        addresses.extend(a for a in reconfig.join if a not in addresses)
        if tuple(addresses) == view.addresses and reconfig.new_f == view.f:
            # Idempotent replay: a replica bootstrapped with the post-change
            # view re-executes this command during state-transfer replay;
            # the membership is already in effect, so keep the view id.
            return encode(("ok", view.view_id))
        try:
            new_view = View(view.view_id + 1, tuple(addresses), reconfig.new_f)
        except ValueError as exc:
            return encode(("error", str(exc)))
        leader = replica.leader
        replica.view = new_view
        replica.synchronizer.on_view_change()
        if replica.leader != leader:
            # A new leader by membership, as after a regency change.
            replica.pool.reset_unproposed()
        if not new_view.contains(replica.address):
            replica.halt()
        return encode(("ok", new_view.view_id))
