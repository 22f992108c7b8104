"""Per-instance consensus state (VP-Consensus inside Mod-SMaRt).

One :class:`Instance` tracks a single consensus slot ``cid`` through the
PROPOSE → WRITE → ACCEPT phases. The replica drives the protocol; this
module only accounts votes and answers quorum questions, which keeps the
quorum logic independently testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import countOf

from repro.crypto import digest


@dataclass(frozen=True)
class Proposal:
    """A proposal for slot ``cid`` with its value at hand: the leader's
    own, a SYNC re-proposal, or a PROPOSE resolved from the pool. Never
    on the wire; ``batch`` is the value's :class:`RequestBatch` when the
    proposer already holds it decoded."""

    cid: int
    epoch: int
    value: bytes
    timestamp: float
    batch: object = None


class Instance:
    """Bookkeeping for one consensus slot."""

    def __init__(self, cid: int, epoch: int) -> None:
        self.cid = cid
        self.epoch = epoch
        self.proposal_value: bytes | None = None
        self.proposal_digest: bytes | None = None
        self.proposal_timestamp: float = 0.0
        #: Decoded RequestBatch of the proposal, when the replica already
        #: decoded it during validation (spares a re-decode at decision).
        self.proposal_batch = None
        #: sender -> digest voted in the WRITE phase of the current epoch.
        self.writes: dict[str, bytes] = {}
        #: sender -> digest voted in the ACCEPT phase of the current epoch.
        self.accepts: dict[str, bytes] = {}
        self.write_sent = False
        self.accept_sent = False
        #: Members this replica answered a fetch for this slot's proposal
        #: in the current epoch (a leader answers each once).
        self.fetched_by: set = set()
        self.decided = False
        self.decided_value: bytes | None = None
        self.decided_digest: bytes | None = None
        self.decided_timestamp: float = 0.0
        self.decided_batch = None
        #: Observability state (dict of open spans) set by the replica
        #: when a tracer is installed; ``None`` otherwise. The protocol
        #: never reads it.
        self.obs = None

    # -- epoch handling -------------------------------------------------------

    def advance_epoch(self, epoch: int) -> None:
        """Reset vote state for a higher epoch (after a leader change)."""
        if epoch <= self.epoch:
            raise ValueError(f"epoch must grow: {epoch} <= {self.epoch}")
        self.epoch = epoch
        self.proposal_value = None
        self.proposal_digest = None
        self.proposal_batch = None
        self.writes.clear()
        self.accepts.clear()
        self.write_sent = False
        self.accept_sent = False
        self.fetched_by.clear()

    # -- proposal ---------------------------------------------------------------

    def set_proposal(self, value: bytes, timestamp: float, batch=None) -> bytes:
        """Record the leader's proposal; returns its digest.

        ``batch`` optionally carries the already-decoded RequestBatch so
        the decision path does not have to decode ``value`` again.
        """
        self.proposal_value = value
        self.proposal_digest = digest(value)
        self.proposal_timestamp = timestamp
        self.proposal_batch = batch
        return self.proposal_digest

    # -- voting -------------------------------------------------------------------

    def add_write(self, sender: str, value_digest: bytes) -> None:
        """Record a WRITE vote (first vote per sender wins)."""
        self.writes.setdefault(sender, value_digest)

    def add_accept(self, sender: str, value_digest: bytes) -> None:
        self.accepts.setdefault(sender, value_digest)

    def has_write_quorum(self, quorum: int) -> bool:
        """Does the *proposed* digest hold a WRITE quorum?"""
        proposed = self.proposal_digest
        return proposed is not None and countOf(self.writes.values(), proposed) >= quorum

    def has_accept_quorum(self, quorum: int) -> bool:
        proposed = self.proposal_digest
        return proposed is not None and countOf(self.accepts.values(), proposed) >= quorum

    def decide(self) -> None:
        if self.proposal_value is None:
            raise RuntimeError(f"cid {self.cid}: cannot decide without a proposal")
        self.decided = True
        self.decided_value = self.proposal_value
        self.decided_digest = self.proposal_digest
        self.decided_timestamp = self.proposal_timestamp
        self.decided_batch = self.proposal_batch

    def __repr__(self) -> str:
        state = "decided" if self.decided else (
            "accepting" if self.accept_sent else ("writing" if self.write_sent else "idle")
        )
        return f"<Instance cid={self.cid} epoch={self.epoch} {state}>"
