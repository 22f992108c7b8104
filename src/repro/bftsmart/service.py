"""The replicated-service abstraction (BFT-SMaRt's ``Executable``/``Recoverable``).

A service executes opaque operation bytes deterministically: given the
same operation and :class:`MessageContext`, every correct replica must
produce the same result bytes and state transition. The context carries
the consensus-assigned ordering data and the leader's timestamp — the
exact information SMaRt-SCADA's Adapter feeds to ContextInfo (§IV-C).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.wire import decode, encode
from repro.wire.registry import dict_fill_init

if typing.TYPE_CHECKING:
    from repro.bftsmart.replica import ServiceReplica


@dict_fill_init  # one per executed request: not a wire type, but as hot as one
@dataclass(frozen=True)
class MessageContext:
    """Deterministic execution context for one operation.

    Every field but ``replica`` is a function of the decided log entry
    alone, so a replica executing it live, from its WAL after a restart
    or after a state transfer builds an equal context. That is why there
    is no regency here: a replaying replica never learns the epoch under
    which a logged slot decided.

    Attributes
    ----------
    cid:
        Consensus instance that ordered the operation.
    order:
        Position of the operation inside the decided batch.
    timestamp:
        The leader's clock reading carried in the PROPOSE; identical at
        every replica, hence safe to use for event timestamps.
    client_id, sequence:
        Identity of the originating request.
    replica:
        Address of the replica executing (never use for state!).
    """

    cid: int
    order: int
    timestamp: float
    client_id: str
    sequence: int
    replica: str

    @property
    def order_key(self) -> tuple:
        """Total-order key ``(cid, order)`` for tagging derived messages."""
        return (self.cid, self.order)


class Service:
    """Base class for deterministic replicated services."""

    def __init__(self) -> None:
        self._replica: "ServiceReplica | None" = None

    def bind(self, replica: "ServiceReplica") -> None:
        """Called by the replica hosting this service instance."""
        self._replica = replica

    @property
    def replica(self) -> "ServiceReplica":
        if self._replica is None:
            raise RuntimeError("service is not bound to a replica")
        return self._replica

    # -- required interface -------------------------------------------------

    def execute(self, operation: bytes, ctx: MessageContext) -> bytes:
        """Apply ``operation``; must be deterministic given (operation, ctx)."""
        raise NotImplementedError

    def snapshot(self) -> bytes:
        """Serialize the full service state for checkpoints/state transfer."""
        raise NotImplementedError

    def install_snapshot(self, data: bytes) -> None:
        """Replace the service state with a snapshot from a peer."""
        raise NotImplementedError

    # -- optional interface -------------------------------------------------

    def execute_unordered(self, operation: bytes) -> bytes:
        """Read-only execution outside the total order (default: refuse)."""
        raise NotImplementedError(f"{type(self).__name__} has no read-only path")

    def cost_of(self, operation: bytes) -> float:
        """Simulated CPU seconds one execution occupies the replica for.

        The default (0.0) makes execution free; the SCADA service
        overrides this with its calibrated cost model.
        """
        return 0.0

    def post_cost(self) -> float:
        """Extra cost discovered *during* the last execution.

        Charged by the executor after :meth:`execute` returns — e.g. the
        SCADA service reports event persistence work here, which is only
        known once the handlers have run.
        """
        return 0.0

    def push(self, client_id: str, stream: str, order: tuple, payload) -> None:
        """Send an asynchronous message (bytes, or a message to encode) to
        a registered client listener."""
        self.replica.push(client_id, stream, order, payload)


class EchoService(Service):
    """Returns the operation unchanged; the state is a running digest.

    Used by unit tests and the §V-B "BFT-SMaRt is not the bottleneck"
    microbenchmark.
    """

    def __init__(self) -> None:
        super().__init__()
        self.executed = 0

    def execute(self, operation: bytes, ctx: MessageContext) -> bytes:
        self.executed += 1
        return operation

    def snapshot(self) -> bytes:
        return encode(self.executed)

    def install_snapshot(self, data: bytes) -> None:
        self.executed = decode(data)


class CounterService(Service):
    """A counter supporting ``add``/``get``; the classic SMR demo service."""

    def __init__(self) -> None:
        super().__init__()
        self.value = 0

    def execute(self, operation: bytes, ctx: MessageContext) -> bytes:
        verb, argument = decode(operation)
        if verb == "add":
            self.value += argument
        elif verb != "get":
            raise ValueError(f"unknown counter operation {verb!r}")
        return encode(self.value)

    def execute_unordered(self, operation: bytes) -> bytes:
        verb, _ = decode(operation)
        if verb != "get":
            raise ValueError("only 'get' may run unordered")
        return encode(self.value)

    def snapshot(self) -> bytes:
        return encode(self.value)

    def install_snapshot(self, data: bytes) -> None:
        self.value = decode(data)


class KeyValueService(Service):
    """A small replicated KV store used by integration and property tests."""

    def __init__(self) -> None:
        super().__init__()
        self.data: dict = {}

    def execute(self, operation: bytes, ctx: MessageContext) -> bytes:
        request = decode(operation)
        verb = request[0]
        if verb == "put":
            _, key, value = request
            self.data[key] = value
            return encode(("ok", None))
        if verb == "get":
            _, key = request
            return encode(("ok", self.data.get(key)))
        if verb == "delete":
            _, key = request
            return encode(("ok", self.data.pop(key, None)))
        raise ValueError(f"unknown kv operation {verb!r}")

    def snapshot(self) -> bytes:
        return encode(sorted(self.data.items()))
