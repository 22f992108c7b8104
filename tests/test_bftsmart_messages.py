"""Wire round-trips for every protocol message type."""

import pytest

from repro.bftsmart import (
    AcceptMsg,
    ClientRequest,
    FetchRequests,
    Propose,
    PushMessage,
    ReconfigRequest,
    Reply,
    RequestBatch,
    Sealed,
    StateReply,
    StateRequest,
    Stop,
    StopData,
    Sync,
    View,
    WriteMsg,
)
from repro.bftsmart.messages import TimeoutVote
from repro.wire import decode, encode

SAMPLES = [
    ClientRequest(
        client_id="c1",
        sequence=7,
        operation=b"\x01\x02",
        reply_to="c1",
        unordered=False,
        mac=b"tag",
    ),
    Reply(client_id="c1", sequence=7, result=b"ok", view_id=0, regency=2),
    PushMessage(client_id="c1", stream="scada", order=(3, 0, 1), payload=b"x"),
    Propose(
        cid=5, epoch=1, keys=(("c1", 7), ("c2", 0)), value_digest=b"d" * 20,
        timestamp=2.5,
    ),
    FetchRequests(cid=5, epoch=1, keys=(("c2", 0),)),
    WriteMsg(cid=5, epoch=1, value_digest=b"d" * 20),
    AcceptMsg(cid=5, epoch=1, value_digest=b"d" * 20),
    Stop(regency=4),
    StopData(
        regency=4,
        last_decided=9,
        in_flight=((10, 1, b"v", 1.0), (11, 1, b"w", 1.2)),
        signature=b"s",
    ),
    StopData(regency=4, last_decided=9, in_flight=(), signature=b"s"),
    Sync(regency=4, proposals=((10, b"v", 1.0), (11, b"", 3.0))),
    Sync(regency=4, proposals=()),
    StateRequest(from_cid=11),
    StateRequest(from_cid=11, log_only=True),
    StateReply(
        checkpoint_cid=9,
        snapshot=b"snap",
        log=((10, b"v", 1.0),),
        view=View(0, ("r0", "r1", "r2", "r3"), 1),
    ),
    StateReply(
        checkpoint_cid=10,
        snapshot=b"",
        log=((11, b"v", 1.5),),
        view=View(0, ("r0", "r1", "r2", "r3"), 1),
        partial=True,
    ),
    ReconfigRequest(admin="admin", join=("r4",), leave=(), new_f=1, signature=b"sig"),
    TimeoutVote(replica="r2", operation_key=("scada-master:w9",)),
    Sealed(sender="r0", payload=b"inner", tags={"r1": b"t1", "r2": b"t2"}),
]


@pytest.mark.parametrize("message", SAMPLES, ids=lambda m: type(m).__name__)
def test_roundtrip(message):
    assert decode(encode(message)) == message


def test_request_batch_roundtrip_nested():
    batch = RequestBatch(requests=(SAMPLES[0],))
    assert decode(encode(batch)) == batch


def test_encoding_is_canonical_per_message():
    for message in SAMPLES:
        assert encode(message) == encode(decode(encode(message)))
