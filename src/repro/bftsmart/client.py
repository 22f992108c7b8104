"""Client side of the replication library.

:class:`ServiceProxy` is what BFT-SMaRt calls the ``ServiceProxy``: it
signs and multicasts requests to every replica, collects replies, and
delivers a result once ``f+1`` identical replies arrived (``n-f`` for
unordered/read-only requests). It also hosts the :class:`PushVoter`, the
client-side half of the asynchronous server→client channel the paper
relies on for ItemUpdate/EventUpdate delivery: each replica pushes its
copy, and the voter fires the registered handler exactly once per
``(stream, order)`` after ``f+1`` matching copies.
"""

from __future__ import annotations

from repro.bftsmart.channel import SecureChannel
from repro.bftsmart.messages import ClientRequest, PushMessage, Reply, RequestBatch
from repro.bftsmart.replica import SIGNED_ATTR, record_body, signing_payload
from repro.bftsmart.view import View
from repro.crypto import KeyStore, Signer, digest
from repro.net.network import Network
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.wire import encode_cached


class QuorumDivergence(Exception):
    """An unordered read's replies diverged beyond quorum reach.

    Raised (through the invocation event) when enough distinct answers
    arrived that no reply group can still collect ``n-f`` matching votes.
    Callers fall back to ordered execution, which always agrees.
    """


class _PendingInvocation:
    """Vote state for one outstanding request."""

    __slots__ = (
        "request",
        "event",
        "votes",
        "quorum",
        "attempts",
        "timer",
        "unordered",
        "span",
        "quorum_span",
    )

    def __init__(
        self,
        request: ClientRequest,
        event: Event,
        quorum: int,
        unordered: bool = False,
    ) -> None:
        self.request = request
        self.event = event
        #: result digest -> {replica: result bytes}
        self.votes: dict[bytes, dict] = {}
        self.quorum = quorum
        self.attempts = 1
        self.unordered = unordered
        #: The pending retransmission timer handle; cancelled on quorum.
        self.timer = None
        #: Observability: the open "request" span and its reply-quorum
        #: child, or ``None`` when tracing is off.
        self.span = None
        self.quorum_span = None


class PushVoter:
    """Delivers replica pushes after f+1 matching copies, exactly once."""

    #: Retain at most this many delivered order-keys per stream for dedup,
    #: and at most this many undelivered votes per member.
    DEDUP_LIMIT = 50_000

    def __init__(self, view_provider) -> None:
        self._view_provider = view_provider
        #: (stream, order) -> {payload digest: (message, voters)}: every
        #: undelivered candidate, indexed by the slot it competes for, so
        #: a delivery drops its competitors without a scan.
        self._candidates: dict[tuple, dict] = {}
        #: member -> its undelivered votes as ``(stream, order, digest)``
        #: keys, oldest first. A member pushing orders that never reach
        #: f+1 only ages out its own oldest votes (``DEDUP_LIMIT``).
        self._open: dict[str, dict] = {}
        self._delivered: dict[str, set] = {}
        #: (stream, order) -> digest of the f+1-voted payload, kept (and
        #: trimmed) alongside ``_delivered`` so late or competing pushes
        #: can be compared against what actually won.
        self._delivered_digest: dict[tuple, bytes] = {}
        self._handlers: dict[str, object] = {}
        #: Optional observer ``fn(stream, order, replica)`` fired for each
        #: replica whose push payload disagreed with the voted delivery.
        #: Purely diagnostic (the intrusion detector's falsified-push
        #: feature); never affects delivery.
        self.on_deviant = None
        self.delivered_count = 0

    def set_handler(self, stream: str, handler) -> None:
        """Register ``handler(message)`` for one stream: it gets the voted
        :class:`PushMessage` (the first copy of the winning payload)."""
        self._handlers[stream] = handler

    def on_push(self, message: PushMessage, sender: str) -> None:
        """Count ``message`` as ``sender``'s vote (the envelope's sender)."""
        view: View = self._view_provider()
        if not view.contains(sender):
            return
        payload_digest = digest(message.payload)
        stream, order = message.stream, message.order
        slot = (stream, order)
        if order in self._delivered.setdefault(stream, set()):
            won = self._delivered_digest.get(slot)
            if won is not None and won != payload_digest:
                # A straggler copy disagreeing with the voted delivery.
                self._note_deviant(stream, order, sender)
            return
        candidates = self._candidates.setdefault(slot, {})
        candidate = candidates.get(payload_digest)
        if candidate is None:
            candidate = candidates[payload_digest] = (message, set())
        voted, voters = candidate
        voters.add(sender)
        self._hold(sender, (stream, order, payload_digest))
        if len(voters) >= view.weak_quorum:
            self._delivered_digest[slot] = payload_digest
            self._deliver(stream, order, voted)
            # Drop every candidate payload for this order; replicas that
            # voted a competing digest pushed a payload the quorum
            # contradicts.
            del self._candidates[slot]
            for other, (_message, group) in candidates.items():
                for member in group:
                    self._open[member].pop((stream, order, other), None)
                if other != payload_digest:
                    for deviant in sorted(group):
                        self._note_deviant(stream, order, deviant)

    def _hold(self, member: str, key: tuple) -> None:
        """Record ``member``'s vote ``key``; past the cap, drop its oldest."""
        held = self._open.setdefault(member, {})
        held[key] = None
        if len(held) > self.DEDUP_LIMIT:
            stream, order, oldest = old = next(iter(held))
            del held[old]
            candidates = self._candidates[(stream, order)]
            voters = candidates[oldest][1]
            voters.discard(member)
            if not voters:
                del candidates[oldest]
                if not candidates:
                    del self._candidates[(stream, order)]

    def _note_deviant(self, stream: str, order: tuple, replica: str) -> None:
        if self.on_deviant is not None:
            self.on_deviant(stream, order, replica)

    def _deliver(self, stream: str, order: tuple, message: PushMessage) -> None:
        delivered = self._delivered.setdefault(stream, set())
        delivered.add(order)
        if len(delivered) > self.DEDUP_LIMIT:
            # Forget the oldest half; retransmissions that old are gone.
            for old in sorted(delivered)[: self.DEDUP_LIMIT // 2]:
                delivered.discard(old)
                self._delivered_digest.pop((stream, old), None)
        self.delivered_count += 1
        handler = self._handlers.get(stream)
        if handler is not None:
            handler(message)


class ServiceProxy:
    """Issues requests to a replica group and votes on the replies."""

    #: Retransmission backoff: each retry waits ``backoff_factor`` times
    #: longer than the last, capped at ``backoff_cap * invoke_timeout``.
    backoff_factor = 2.0
    backoff_cap = 4.0
    #: Deterministic jitter fraction added on top of each backoff step.
    backoff_jitter = 0.1

    def __init__(
        self,
        sim: Simulator,
        net: Network,
        client_id: str,
        keystore: KeyStore,
        view: View,
        invoke_timeout: float = 1.0,
        max_attempts: int = 10,
        sequence_start: int = 0,
    ) -> None:
        self.sim = sim
        self.client_id = client_id
        self.view = view
        self.invoke_timeout = invoke_timeout
        self.max_attempts = max_attempts
        # Every proxy jitters from its own named stream: runs stay
        # reproducible per seed, and two proxies never thundering-herd
        # their retransmissions onto the same instant.
        self._backoff_rng = sim.rng.stream(f"client.{client_id}.backoff")

        self.endpoint = net.endpoint(client_id)
        self.endpoint.set_handler(self._on_network_message)
        self.channel = SecureChannel(self.endpoint, keystore)
        self.signer = Signer(client_id, keystore)
        self.pushes = PushVoter(lambda: self.view)
        self.pushes.on_deviant = self._on_push_deviant
        #: Winning digest of recently completed *ordered* requests, so a
        #: straggler reply from a lying replica — arriving after the f+1
        #: quorum popped the invocation — is still compared against the
        #: agreed result. Insertion-ordered and trimmed, like push dedup.
        self._recent_results: dict[int, bytes] = {}

        # A restarted client instance (proactive recovery) must begin
        # above every sequence its predecessor used, or the replicas'
        # dedup table silently swallows its requests.
        self._sequence = sequence_start - 1
        self._pending: dict[int, _PendingInvocation] = {}
        #: Every replica address this proxy has ever known (across view
        #: updates). Late retransmissions broadcast to this union: after a
        #: leader change or reconfiguration the *current* view may be
        #: stale, and a request parked at removed members costs nothing.
        self._known_addresses: set = set(view.addresses)
        #: Optional observer ``fn(sequence, result, voters)`` fired when a
        #: quorum completes an invocation (chaos invariant monitors hook
        #: this to check results are backed by honest replicas).
        self.on_result = None
        self.stats = {
            "invocations": 0,
            "retransmissions": 0,
            "failures": 0,
            "read_divergences": 0,
        }

    # -- invoking --------------------------------------------------------------

    def invoke_ordered(self, operation, parent=None) -> Event:
        """Submit an ordered operation; the event triggers with the result.

        ``operation`` is bytes or a message, which the request carries
        encoded and, when frozen, as its body record: a replica decoding
        those very bytes takes the message instead.

        ``parent`` optionally names an upstream trace context (anything
        with ``trace_id``/``span_id``, e.g. a :class:`repro.obs.Span`):
        the request's derived trace id is aliased into that trace so the
        proxy layers and the BFT spans form one tree.
        """
        return self._invoke((operation,), unordered=False, parent=parent)[0]

    def invoke_ordered_together(self, operations) -> list:
        """Submit operations handed over in one instant; one event each.

        One operation travels exactly as :meth:`invoke_ordered` sends it.
        Two or more travel in one :class:`RequestBatch` envelope, which a
        leader admits whole before it considers proposing, so they share
        a PROPOSE. Each request in it is still signed, voted on,
        deduplicated and retransmitted (alone) on its own.
        """
        return self._invoke(operations, unordered=False)

    def invoke_unordered(self, operation, parent=None) -> Event:
        """Submit a read-only operation outside the total order."""
        return self._invoke((operation,), unordered=True, parent=parent)[0]

    def _invoke(self, operations, unordered: bool, parent=None) -> list:
        tracer = self.sim.tracer
        tracing = tracer is not None and tracer.enabled
        quorum = self.view.live_quorum if unordered else self.view.weak_quorum
        invocations = []
        for operation in operations:
            self._sequence += 1
            sequence = self._sequence
            if tracing and parent is not None:
                tracer.alias(f"req:{self.client_id}:{sequence}", parent.trace_id)
            request = self._sign(sequence, operation, unordered)
            event = Event(self.sim, name=f"invoke:{self.client_id}:{sequence}")
            invocation = _PendingInvocation(request, event, quorum, unordered=unordered)
            if tracing:
                invocation.span = tracer.begin(
                    "request",
                    tracer.for_request(request),
                    parent=parent,
                    process=self.client_id,
                    client=self.client_id,
                    sequence=sequence,
                    unordered=unordered,
                )
            self._pending[sequence] = invocation
            self.stats["invocations"] += 1
            invocations.append(invocation)
        requests = tuple(invocation.request for invocation in invocations)
        self._transmit(requests[0] if len(requests) == 1 else RequestBatch(requests))
        for invocation in invocations:
            invocation.timer = self.sim.timer(
                self._retransmission_delay(invocation.attempts),
                self._retransmit,
                invocation.request.sequence,
            )
        return [invocation.event for invocation in invocations]

    def _sign(self, sequence: int, operation, unordered: bool) -> ClientRequest:
        """The request, built once, signed and carrying its signer's record
        (and, for a message ``operation``, its body record).

        The signed fields exclude ``mac``, so the payload is encoded from
        the field values before the request exists. ``trace_id`` stays
        empty on the wire: frame sizes feed the latency model, so tracing
        links spans through the derived ``req:<client>:<sequence>`` id and
        never grows a frame.
        """
        body = None
        if not isinstance(operation, bytes):
            body, operation = operation, encode_cached(operation)
        fields = (self.client_id, sequence, operation, self.client_id, unordered)
        payload = signing_payload(fields)
        tag = self.signer.sign(payload).tag
        request = ClientRequest(
            client_id=self.client_id,
            sequence=sequence,
            operation=operation,
            reply_to=self.client_id,
            unordered=unordered,
            mac=tag,
            trace_id="",
        )
        # Stored like the codec's encode memo: no wire field is touched.
        request.__dict__[SIGNED_ATTR] = (fields, (self.signer.key, payload, tag))
        if body is not None:
            record_body(request, operation, body)
        return request

    def _transmit(self, message, broadcast: bool = False) -> None:
        # Serialize-once multicast: the request (or the envelope of
        # requests) is encoded a single time and the payload bytes object
        # is shared by every replica's envelope (which is what lets the
        # replicas share one decode).
        if broadcast and len(self._known_addresses) > len(self.view.addresses):
            targets = sorted(self._known_addresses)
        else:
            targets = list(self.view.addresses)
        self.channel.multicast(targets, message)

    def _retransmission_delay(self, attempts: int) -> float:
        """Capped exponential backoff with deterministic jitter.

        ``attempts`` is the number of transmissions already performed; the
        first retry waits one ``invoke_timeout``, each further retry twice
        the previous wait, capped at ``backoff_cap`` timeouts so a client
        parked behind a long partition still probes at a bounded period.
        """
        scale = min(self.backoff_factor ** (attempts - 1), self.backoff_cap)
        jitter = 1.0 + self.backoff_jitter * self._backoff_rng.random()
        return self.invoke_timeout * scale * jitter

    def _retransmit(self, sequence: int) -> None:
        invocation = self._pending.get(sequence)
        if invocation is None:
            return
        if invocation.attempts >= self.max_attempts:
            self._pending.pop(sequence, None)
            self.stats["failures"] += 1
            self._close_spans(invocation, error="timeout")
            invocation.event.fail(
                TimeoutError(
                    f"request {sequence} got no quorum after "
                    f"{invocation.attempts} attempts"
                )
            )
            return
        invocation.attempts += 1
        self.stats["retransmissions"] += 1
        # From the first backoff step on, the view that selected the
        # original targets may be stale (leader change, reconfiguration):
        # broadcast to every replica this proxy has ever known.
        self._transmit(invocation.request, broadcast=True)
        invocation.timer = self.sim.timer(
            self._retransmission_delay(invocation.attempts), self._retransmit, sequence
        )

    def _close_spans(self, invocation: _PendingInvocation, **attrs) -> None:
        tracer = self.sim.tracer
        if tracer is None or invocation.span is None:
            return
        if invocation.quorum_span is not None:
            tracer.end(invocation.quorum_span, **attrs)
        tracer.end(invocation.span, attempts=invocation.attempts, **attrs)

    # -- receiving -------------------------------------------------------------

    def _on_network_message(self, payload, src: str) -> None:
        opened = self.channel.open(payload)
        if opened is None:
            return
        message, sender = opened
        if isinstance(message, Reply):
            self._on_reply(message, sender)
        elif isinstance(message, PushMessage):
            self.pushes.on_push(message, sender)

    #: Retain winning digests for at most this many completed requests.
    RESULT_MEMORY = 4096

    def _record_result(self, reply: Reply, invocation, won: bytes) -> None:
        """Remember the agreed digest; flag minority voters as deviant."""
        self._recent_results[reply.sequence] = won
        if len(self._recent_results) > self.RESULT_MEMORY:
            for old in list(self._recent_results)[: self.RESULT_MEMORY // 2]:
                self._recent_results.pop(old, None)
        tracer = self.sim.tracer
        if tracer is None or not tracer.enabled:
            return
        for other_digest, group in invocation.votes.items():
            if other_digest == won:
                continue
            for deviant in sorted(group):
                tracer.point(
                    "reply.mismatch",
                    f"req:{self.client_id}:{reply.sequence}",
                    process=self.client_id,
                    replica=deviant,
                    sequence=reply.sequence,
                )

    def _on_push_deviant(self, stream: str, order: tuple, replica: str) -> None:
        tracer = self.sim.tracer
        if tracer is None or not tracer.enabled:
            return
        tracer.point(
            "push.mismatch",
            f"push:{self.client_id}:{stream}",
            process=self.client_id,
            replica=replica,
            stream=stream,
            order=str(order),
        )

    def _reply_point(self, name: str, reply: Reply, sender: str, **attrs) -> None:
        """Zero-duration marker on the request's derived trace id."""
        tracer = self.sim.tracer
        if tracer is None or not tracer.enabled:
            return
        tracer.point(
            name,
            f"req:{self.client_id}:{reply.sequence}",
            process=self.client_id,
            replica=sender,
            sequence=reply.sequence,
            **attrs,
        )

    def _on_reply(self, reply: Reply, sender: str) -> None:
        if reply.client_id != self.client_id or not self.view.contains(sender):
            return
        self._reply_point("reply.recv", reply, sender)
        invocation = self._pending.get(reply.sequence)
        if invocation is None:
            # Straggler for a completed request: ordered replies must
            # match the agreed result, so a deviant digest here is the
            # lying-replica signature (honest stragglers agree).
            won = self._recent_results.get(reply.sequence)
            if won is not None and won != digest(reply.result):
                self._reply_point("reply.mismatch", reply, sender, late=True)
            return
        if invocation.span is not None and invocation.quorum_span is None:
            tracer = self.sim.tracer
            if tracer is not None:
                invocation.quorum_span = tracer.begin(
                    "request.reply_quorum",
                    invocation.span.trace_id,
                    parent=invocation.span,
                    process=self.client_id,
                    quorum=invocation.quorum,
                )
        votes = invocation.votes.setdefault(digest(reply.result), {})
        votes[sender] = reply.result
        if len(votes) >= invocation.quorum:
            self._pending.pop(reply.sequence, None)
            self.sim.cancel_timer(invocation.timer)
            self._close_spans(invocation, voters=len(votes))
            if not invocation.unordered:
                self._record_result(reply, invocation, digest(reply.result))
            if self.on_result is not None:
                self.on_result(reply.sequence, reply.result, frozenset(votes))
            invocation.event.succeed(reply.result)
            return
        if invocation.unordered:
            # Unordered reads can diverge legitimately (a replica serving
            # a stale read while it catches up). Waiting the invocation
            # out would only time it out f attempts later — fail fast the
            # moment no group can still reach quorum even if every silent
            # replica joins the largest one, so the caller can fall back
            # to ordered execution.
            largest = max(len(group) for group in invocation.votes.values())
            repliers = {
                replica
                for group in invocation.votes.values()
                for replica in group
            }
            if largest + (self.view.n - len(repliers)) < invocation.quorum:
                self._pending.pop(reply.sequence, None)
                self.sim.cancel_timer(invocation.timer)
                self.stats["read_divergences"] += 1
                self._close_spans(invocation, error="quorum_divergence")
                invocation.event.fail(
                    QuorumDivergence(
                        f"unordered request {reply.sequence}: "
                        f"{len(invocation.votes)} distinct answers from "
                        f"{len(repliers)} replicas, quorum {invocation.quorum} "
                        "unreachable"
                    )
                )

    # -- membership -------------------------------------------------------------

    def update_view(self, view: View) -> None:
        """Adopt a newer membership (after a reconfiguration)."""
        if view.view_id >= self.view.view_id:
            self.view = view
            self._known_addresses.update(view.addresses)
