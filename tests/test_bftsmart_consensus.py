"""Unit tests for per-instance consensus bookkeeping."""

from operator import countOf

import pytest

from repro.bftsmart.consensus import Instance
from repro.crypto import digest


def test_set_proposal_returns_digest():
    instance = Instance(0, 0)
    d = instance.set_proposal(b"batch", 1.5)
    assert d == digest(b"batch")
    assert instance.proposal_timestamp == 1.5


def test_write_quorum_counts_matching_digests_only():
    instance = Instance(0, 0)
    d = instance.set_proposal(b"batch", 0.0)
    other = digest(b"other")
    instance.add_write("r0", d)
    instance.add_write("r1", other)
    instance.add_write("r2", d)
    assert countOf(instance.writes.values(), d) == 2
    assert not instance.has_write_quorum(3)
    instance.add_write("r3", d)
    assert instance.has_write_quorum(3)


def test_first_vote_per_sender_wins():
    instance = Instance(0, 0)
    d = instance.set_proposal(b"batch", 0.0)
    instance.add_write("r0", digest(b"evil"))
    instance.add_write("r0", d)  # equivocation attempt: ignored
    assert countOf(instance.writes.values(), d) == 0


def test_accept_quorum_decides():
    instance = Instance(5, 0)
    d = instance.set_proposal(b"value", 2.0)
    for replica in ("r0", "r1", "r2"):
        instance.add_accept(replica, d)
    assert instance.has_accept_quorum(3)
    instance.decide()
    assert instance.decided
    assert instance.decided_value == b"value"
    assert instance.decided_timestamp == 2.0


def test_decide_without_proposal_raises():
    instance = Instance(0, 0)
    with pytest.raises(RuntimeError):
        instance.decide()


def test_quorum_needs_proposal():
    instance = Instance(0, 0)
    d = digest(b"value")
    for replica in ("r0", "r1", "r2"):
        instance.add_write(replica, d)
        instance.add_accept(replica, d)
    # Without the proposal itself, votes alone cannot decide.
    assert not instance.has_write_quorum(3)
    assert not instance.has_accept_quorum(3)


def test_advance_epoch_resets_votes():
    instance = Instance(0, 0)
    d = instance.set_proposal(b"batch", 0.0)
    instance.add_write("r0", d)
    instance.write_sent = True
    instance.advance_epoch(2)
    assert instance.epoch == 2
    assert instance.proposal_value is None
    assert instance.writes == {}
    assert not instance.write_sent


def test_advance_epoch_must_grow():
    instance = Instance(0, 3)
    with pytest.raises(ValueError):
        instance.advance_epoch(3)
