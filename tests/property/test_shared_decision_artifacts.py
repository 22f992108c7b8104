"""Votes and WAL frames built once per group stay each replica's own.

The first replica to WRITE, ACCEPT or log a slot records what it built on
the slot's :class:`RequestBatch`, and a later replica holding that very
batch sends or appends the recorded object only when its own ``(cid,
epoch, value_digest)`` (for a frame, ``(cid, timestamp)`` and the value
bytes object) encodes alike. Under a Byzantine leader the group holds
several batches for one slot, and after a regency change one batch can
carry the votes of an older epoch; in every case each vote a replica
seals carries its own instance's triple, and each frame it appends is
the fresh frame of its own decision byte for byte.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bftsmart import CounterService, GroupConfig, build_group, build_proxy
from repro.bftsmart.byzantine import Equivocating, Misdigesting
from repro.bftsmart.consensus import Proposal
from repro.bftsmart.messages import AcceptMsg, RequestBatch, WriteMsg
from repro.crypto import KeyStore, digest
from repro.net import Drop, LanLatency, Network
from repro.sim import Simulator
from repro.storage import ReplicaStorage
from repro.storage.disk import SimDisk
from repro.storage.wal import WriteAheadLog, wal_frame
from repro.wire import decode, encode, encode_cached

ADD = encode(("add", 1))


def _durable_group(seed: int):
    sim = Simulator(seed=seed)
    net = Network(sim, latency=LanLatency(rng=sim.rng.stream("net")))
    keystore = KeyStore()
    config = GroupConfig(n=4, f=1, request_timeout=0.5, sync_timeout=1.0)
    storages = {
        index: ReplicaStorage(address) for index, address in enumerate(config.addresses)
    }
    replicas = build_group(sim, net, config, CounterService, keystore, storages)
    proxy = build_proxy(sim, net, "client-1", config, keystore, invoke_timeout=0.3)
    return sim, net, replicas, proxy


def _watch_votes(replicas) -> list:
    """``(address, vote, own triple)`` for every WRITE and ACCEPT sealed."""
    sealed = []
    for replica in replicas:
        channel = replica.channel
        broadcast = channel.broadcast

        def watched(receivers, message, include_self=False, replica=replica,
                    broadcast=broadcast):
            if type(message) in (WriteMsg, AcceptMsg):
                instance = replica.acceptor.instances[message.cid]
                own = (instance.cid, instance.epoch, instance.proposal_digest)
                sealed.append((replica.address, message, own))
            broadcast(receivers, message, include_self)

        channel.broadcast = watched
    return sealed


def _fresh_frame(cid: int, value: bytes, timestamp: float) -> bytes:
    payload = encode((cid, value, timestamp))
    return encode((payload, digest(payload)))


def _replayed(records) -> tuple:
    disk = SimDisk(name="replay")
    for raw in records:
        disk.log_append(raw)
    disk.fsync()
    return WriteAheadLog(disk).replay()


def _check(sealed, replicas) -> None:
    assert sealed
    for _address, vote, own in sealed:
        assert (vote.cid, vote.epoch, vote.value_digest) == own
        assert encode_cached(vote) == encode(type(vote)(*own))
    for replica in replicas:
        records = replica.storage.disk.log_records()
        assert records
        fresh = []
        for raw in records:
            payload, _digest = decode(raw)
            fresh.append(_fresh_frame(*decode(payload)))
        assert records == fresh
        assert _replayed(records) == _replayed(fresh)


def _run(sim, proxy, replicas, ops: int, until: float) -> None:
    # Handed over together, so a leader proposes them in one batch (which
    # the equivocator reorders for half of its followers).
    events = proxy.invoke_ordered_together([ADD] * ops)
    sim.run(until=until)
    assert all(event.ok for event in events)
    assert len({replica.service.value for replica in replicas}) == 1
    assert replicas[1].service.value == ops


@given(st.integers(1, 10_000), st.integers(1, 3))
@settings(max_examples=4, deadline=None)
def test_a_misdigesting_leader(seed, ops):
    sim, _net, replicas, proxy = _durable_group(seed)
    sealed = _watch_votes(replicas)
    replicas[0].behaviour = Misdigesting()
    _run(sim, proxy, replicas, ops, until=5.0)
    assert replicas[1].regency >= 1
    _check(sealed, replicas)


@given(st.integers(1, 10_000), st.integers(2, 3))
@settings(max_examples=4, deadline=None)
def test_an_equivocating_leader(seed, ops):
    sim, _net, replicas, proxy = _durable_group(seed)
    sealed = _watch_votes(replicas)
    replicas[0].behaviour = Equivocating()
    _run(sim, proxy, replicas, ops, until=5.0)
    assert replicas[1].regency >= 1
    _check(sealed, replicas)


@given(st.integers(1, 10_000))
@settings(max_examples=4, deadline=None)
def test_a_regency_change_re_proposing_the_same_batch(seed):
    """No ACCEPT arrives in regency 0, so the slot is re-proposed in
    regency 1; each replica takes the re-proposal with the batch object
    it WRITE- and ACCEPT-voted on in regency 0, which still carries the
    regency-0 votes."""
    sim, net, replicas, proxy = _durable_group(seed)
    sealed = _watch_votes(replicas)
    first = {}  # value bytes -> (value, batch) the slot was first proposed with
    for replica in replicas:
        acceptor = replica.acceptor
        on_proposal = acceptor.on_proposal

        def same_batch(proposal, sender, on_proposal=on_proposal):
            held = first.setdefault(proposal.value, (proposal.value, proposal.batch))
            if proposal.batch is None and held[1] is not None:
                value, batch = held
                proposal = Proposal(
                    proposal.cid, proposal.epoch, value, proposal.timestamp, batch
                )
            on_proposal(proposal, sender)

        acceptor.on_proposal = same_batch

    # The leader's own proposal enters by value with its batch (recorded
    # in ``first``); followers resolve its PROPOSE to that batch object.
    no_accepts = net.faults.add(Drop(kind="AcceptMsg"))
    event = proxy.invoke_ordered(ADD)
    for _ in range(50):
        sim.run(until=sim.now + 0.1)
        if all(replica.regency >= 1 for replica in replicas):
            break
    assert [replica.regency for replica in replicas] == [1] * 4
    net.faults.remove(no_accepts)
    sim.run(until=sim.now + 2.0)
    assert event.ok
    assert [replica.service.value for replica in replicas] == [1] * 4
    epochs = {(vote.cid, vote.epoch, type(vote)) for _a, vote, _own in sealed}
    assert (0, 0, WriteMsg) in epochs and (0, 0, AcceptMsg) in epochs
    assert (0, 1, WriteMsg) in epochs and (0, 1, AcceptMsg) in epochs
    _check(sealed, replicas)


@given(
    st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from([0.0, -0.0, 1.5]),
            st.sampled_from([0, 1, 2]),
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=50, deadline=None)
def test_one_carrier_logging_many_decisions(decisions):
    """Whatever decisions are logged through one carrier — another cid, a
    timestamp that compares equal but encodes otherwise (``-0.0``),
    another value or an equal copy of it — each append writes the fresh
    frame, and the log replays as a freshly written one."""
    carrier = RequestBatch(requests=())
    values = [b"value", bytes(bytearray(b"value")), b"other"]  # 0 and 1: equal copies
    disk = SimDisk(name="shared")
    wal = WriteAheadLog(disk)
    fresh = []
    for cid, timestamp, which in decisions:
        value = values[which]
        wal.append(cid, value, timestamp, carrier)
        fresh.append(_fresh_frame(cid, value, timestamp))
        assert wal_frame(cid, value, timestamp, carrier) == fresh[-1]
    assert disk.log_records() == fresh
    assert _replayed(disk.log_records()) == _replayed(fresh)
