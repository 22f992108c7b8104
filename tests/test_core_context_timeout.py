"""Unit tests for ContextInfo and the logical-timeout manager."""

import pytest

from repro.bftsmart.messages import TimeoutVote
from repro.bftsmart.service import MessageContext
from repro.core.context import ContextInfo
from repro.core.timeout import LogicalTimeoutManager
from repro.sim import Simulator


def make_ctx(cid=3, order=1, timestamp=12.5):
    return MessageContext(
        cid=cid,
        order=order,
        timestamp=timestamp,
        client_id="client",
        sequence=0,
        replica="replica-0",
    )


def test_context_serves_consensus_timestamp():
    info = ContextInfo()
    info.begin(make_ctx(timestamp=77.0))
    assert info.now() == 77.0


def test_context_event_ids_are_deterministic_and_unique():
    info = ContextInfo()
    info.begin(make_ctx(cid=5, order=2))
    assert info.next_event_id() == "evt-5-2-1"
    assert info.next_event_id() == "evt-5-2-2"
    info.begin(make_ctx(cid=6, order=0))
    assert info.next_event_id() == "evt-6-0-1"


def test_context_order_keys_increase_within_operation():
    info = ContextInfo()
    info.begin(make_ctx(cid=4, order=0))
    assert info.next_order_key() == (4, 0, 1)
    assert info.next_order_key() == (4, 0, 2)


def test_context_reads_outside_operation_rejected():
    info = ContextInfo()
    with pytest.raises(RuntimeError):
        info.now()
    info.begin(make_ctx())
    info.end()
    with pytest.raises(RuntimeError):
        info.next_event_id()


def test_two_replicas_derive_identical_context_outputs():
    a, b = ContextInfo(), ContextInfo()
    for info in (a, b):
        info.begin(make_ctx(cid=9, order=3, timestamp=1.5))
    assert a.now() == b.now()
    assert a.next_event_id() == b.next_event_id()
    assert a.next_order_key() == b.next_order_key()


# -- LogicalTimeoutManager ---------------------------------------------------


VOTERS = ("replica-0", "replica-1", "replica-2", "replica-3")


def make_manager(sim, sent, address="replica-0", timeout=1.0, majority=3):
    return LogicalTimeoutManager(
        sim=sim,
        replica_address=address,
        timeout=timeout,
        majority=majority,
        send_vote=sent.append,
    )


def test_timer_fires_vote_after_timeout():
    sim = Simulator()
    sent = []
    manager = make_manager(sim, sent)
    manager.arm("op-1", "item-1")
    sim.run(until=0.5)
    assert sent == []
    sim.run(until=1.5)
    assert len(sent) == 1
    assert sent[0].operation_key == ("op-1",)


def test_disarm_before_expiry_suppresses_vote():
    sim = Simulator()
    sent = []
    manager = make_manager(sim, sent)
    manager.arm("op-1", "item-1")
    sim.run(until=0.5)
    manager.disarm("op-1")
    sim.run(until=5.0)
    assert sent == []


def test_majority_of_votes_synthesizes_empty_write_result():
    sim = Simulator()
    manager = make_manager(sim, [])
    manager.arm("op-1", "item-1")
    results = [
        manager.on_ordered_vote(
            TimeoutVote(replica=f"replica-{i}", operation_key=("op-1",)), VOTERS
        )
        for i in range(3)
    ]
    assert results[0] is None and results[1] is None
    synthesized = results[2]
    assert synthesized is not None
    assert not synthesized.success
    assert synthesized.op_id == "op-1"
    assert synthesized.item_id == "item-1"
    assert "logical timeout" in synthesized.reason


def test_duplicate_votes_do_not_double_count():
    sim = Simulator()
    manager = make_manager(sim, [])
    manager.arm("op-1", "item-1")
    vote = TimeoutVote(replica="replica-1", operation_key=("op-1",))
    assert manager.on_ordered_vote(vote, VOTERS) is None
    assert manager.on_ordered_vote(vote, VOTERS) is None
    assert manager.on_ordered_vote(vote, VOTERS) is None


def test_votes_from_invalid_voters_ignored():
    sim = Simulator()
    manager = make_manager(sim, [])
    manager.arm("op-1", "item-1")
    for i in range(5):
        result = manager.on_ordered_vote(
            TimeoutVote(replica=f"evil-{i}", operation_key=("op-1",)), VOTERS
        )
        assert result is None


def test_votes_for_unknown_operation_ignored():
    sim = Simulator()
    manager = make_manager(sim, [])
    for i in range(4):
        assert (
            manager.on_ordered_vote(
                TimeoutVote(replica=f"replica-{i}", operation_key=("ghost",)), VOTERS
            )
            is None
        )


def test_synthesis_happens_once():
    sim = Simulator()
    manager = make_manager(sim, [])
    manager.arm("op-1", "item-1")
    outcomes = [
        manager.on_ordered_vote(
            TimeoutVote(replica=f"replica-{i}", operation_key=("op-1",)), VOTERS
        )
        for i in range(4)
    ]
    assert sum(1 for o in outcomes if o is not None) == 1
