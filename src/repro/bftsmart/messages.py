"""Wire messages of the replication protocol.

All messages are frozen dataclasses registered with the global codec.
Wire ids 20–49 are reserved for this module. Consensus messages carry the
sender and a MAC vector is attached by the channel layer in
:mod:`repro.bftsmart.replica`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.wire import wire_type


# -- client <-> replicas ----------------------------------------------------


@wire_type(20)
@dataclass(frozen=True)
class ClientRequest:
    """An operation a client wants the replicated service to execute.

    ``sequence`` is per-client and monotonically increasing; together with
    ``client_id`` it deduplicates retransmissions. ``reply_to`` is the
    network address replies are sent to (normally the client itself).
    ``unordered`` requests skip consensus and execute read-only.
    """

    client_id: str
    sequence: int
    operation: bytes
    reply_to: str
    unordered: bool = False
    mac: bytes = b""
    #: Optional observability trace id. Empty by default — tracing uses
    #: derived ids (``repro.obs.trace.request_trace_id``) so enabling it
    #: never changes wire bytes, and ``ServiceProxy`` always sends it
    #: empty. Excluded from the signed payload, like ``mac``. Frames
    #: written before this field existed still decode (codec
    #: default-tail backward compatibility).
    trace_id: str = ""

    def key(self) -> tuple:
        return (self.client_id, self.sequence)


@wire_type(21)
@dataclass(frozen=True)
class Reply:
    """A replica's answer to one client request."""

    replica: str
    client_id: str
    sequence: int
    result: bytes
    view_id: int
    regency: int


@wire_type(22)
@dataclass(frozen=True)
class PushMessage:
    """Replica-initiated (asynchronous) message to a registered listener.

    This is the feature §VI credits with solving Kirsch et al.'s second
    challenge: servers may send messages to clients outside the
    request/reply pattern. ``stream`` names the logical channel,
    ``order`` is the deterministic ordering key assigned by the service
    (all correct replicas assign the same), and listeners vote f+1
    matching ``(stream, order, payload)`` tuples before delivery.
    """

    replica: str
    client_id: str
    stream: str
    order: tuple
    payload: bytes


# -- consensus (VP-Consensus inside Mod-SMaRt) -------------------------------


@wire_type(23)
@dataclass(frozen=True)
class Propose:
    """Leader's proposal for consensus instance ``cid`` in ``epoch``.

    ``value`` is the serialized request batch. ``timestamp`` is the
    leader's clock reading, adopted by every replica when executing the
    batch — the mechanism that makes timestamps deterministic (§IV-C).
    """

    sender: str
    cid: int
    epoch: int
    value: bytes
    timestamp: float


@wire_type(24)
@dataclass(frozen=True)
class WriteMsg:
    """Echo of the proposal digest; 'write' phase of VP-Consensus."""

    sender: str
    cid: int
    epoch: int
    value_digest: bytes


@wire_type(25)
@dataclass(frozen=True)
class AcceptMsg:
    """Commit vote; a quorum of these decides the instance."""

    sender: str
    cid: int
    epoch: int
    value_digest: bytes


@wire_type(26)
@dataclass(frozen=True)
class RequestBatch:
    """The decided value: an ordered tuple of client requests."""

    requests: tuple


# -- synchronization phase (leader change) -----------------------------------


@wire_type(27)
@dataclass(frozen=True)
class Stop:
    """A replica's vote to abandon the current regency."""

    sender: str
    regency: int


@wire_type(28)
@dataclass(frozen=True)
class StopData:
    """State a replica hands the new leader when a regency is installed.

    ``in_flight`` is a tuple of ``(cid, epoch, value_bytes, timestamp)``
    entries, one per open slot of the consensus pipeline window: every
    proposal this replica sent a WRITE for but has not released, decided
    ones included (empty tuple when nothing is open). ``signature``
    covers the serialized content (slow path).
    """

    sender: str
    regency: int
    last_decided: int
    in_flight: tuple
    signature: bytes


@wire_type(29)
@dataclass(frozen=True)
class Sync:
    """New leader's resolution for the open consensus window.

    ``proposals`` is a tuple of ``(cid, value_bytes, timestamp)`` in
    ascending cid order — every slot the group must re-run under the new
    regency (``b""`` values are gap-filling empty batches). Empty when
    nothing was in flight; fresh proposing resumes above the window.
    """

    sender: str
    regency: int
    proposals: tuple


# -- state transfer -----------------------------------------------------------


@wire_type(30)
@dataclass(frozen=True)
class StateRequest:
    """Ask peers for a snapshot covering decisions up to their checkpoint.

    ``log_only`` marks a *partial* request: the sender already holds
    state through ``from_cid - 1`` (recovered from its own disk or a
    live prefix) and only wants the decided-log suffix. Peers that can
    no longer serve the suffix — their checkpoint already swallowed it —
    answer with a full snapshot instead.
    """

    sender: str
    from_cid: int
    log_only: bool = False


@wire_type(31)
@dataclass(frozen=True)
class StateReply:
    """Checkpoint snapshot plus the decided log after it.

    ``log`` is a tuple of ``(cid, value_bytes, timestamp)`` entries for
    instances decided after the checkpoint. A ``partial`` reply carries
    no snapshot: ``checkpoint_cid`` names the base the requester must
    already hold (``from_cid - 1``) and ``log`` is the suffix from
    ``from_cid`` on. Partial and full replies vote in separate f+1
    groups — whichever kind gathers the quorum first installs.

    ``regency`` is the latest regency whose SYNC the sender processed
    (not one it is still synchronizing). It is part of what the f+1
    replies must agree on, so the requester can adopt it: one of them
    comes from a correct replica that completed it.
    """

    sender: str
    checkpoint_cid: int
    snapshot: bytes
    log: tuple
    view: object
    partial: bool = False
    regency: int = 0


# -- reconfiguration -----------------------------------------------------------


@wire_type(32)
@dataclass(frozen=True)
class ReconfigRequest:
    """Administrative membership change, ordered like a client request.

    ``join`` lists addresses to add, ``leave`` addresses to remove, and
    ``new_f`` the fault threshold after the change. Must carry a
    signature from the trusted administrator ("TTP" in BFT-SMaRt).
    """

    admin: str
    join: tuple
    leave: tuple
    new_f: int
    signature: bytes


@wire_type(34)
@dataclass(frozen=True)
class Sealed:
    """An authenticated envelope: encoded inner message plus MAC tags.

    ``tags`` maps receiver address → HMAC over ``payload`` on the
    sender↔receiver channel. Multicast messages carry one tag per
    receiver (the PBFT authenticator construction); point-to-point
    messages carry a single entry.
    """

    sender: str
    payload: bytes
    tags: dict


@wire_type(33)
@dataclass(frozen=True)
class TimeoutVote:
    """SMaRt-SCADA logical-timeout vote (§IV-D), ordered via consensus.

    Carried here because it travels as an ordered operation through the
    same total-order machinery; semantics live in :mod:`repro.core.timeout`.
    """

    replica: str
    operation_key: tuple
