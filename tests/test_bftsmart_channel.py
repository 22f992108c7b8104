"""Unit tests for the authenticated channel layer (Sealed envelopes)."""

from repro.bftsmart.channel import SecureChannel
from repro.bftsmart.messages import Sealed, Stop
from repro.crypto import KeyStore
from repro.net import ConstantLatency, Network
from repro.sim import Simulator


def make_channels(names=("a", "b"), secrets=None):
    sim = Simulator(seed=1)
    net = Network(sim, latency=ConstantLatency(0.0001))
    secrets = secrets or {}
    channels = {}
    inboxes = {}
    for name in names:
        keystore = KeyStore(secrets.get(name, b"shared"))
        endpoint = net.endpoint(name)
        inboxes[name] = []
        endpoint.set_handler(
            lambda payload, src, n=name: inboxes[n].append(payload)
        )
        channels[name] = SecureChannel(endpoint, keystore)
    return sim, channels, inboxes


def test_seal_and_open_roundtrip():
    sim, channels, inboxes = make_channels()
    message = Stop(regency=3)
    channels["a"].send("b", message)
    sim.run()
    sealed = inboxes["b"][0]
    assert isinstance(sealed, Sealed)
    assert channels["b"].open(sealed) == (message, "a")


def test_open_rejects_wrong_key():
    sim, channels, inboxes = make_channels(secrets={"b": b"different"})
    channels["a"].send("b", Stop(regency=1))
    sim.run()
    assert channels["b"].open(inboxes["b"][0]) is None
    assert channels["b"].rejected == 1


def test_open_rejects_missing_tag():
    sim, channels, _ = make_channels()
    sealed = channels["a"].seal(Stop(regency=1), receivers=["c"])
    assert channels["b"].open(sealed) is None


def test_open_rejects_tampered_payload():
    sim, channels, _ = make_channels()
    sealed = channels["a"].seal(Stop(regency=1), receivers=["b"])
    tampered = Sealed(
        sender=sealed.sender, payload=sealed.payload + b"x", tags=sealed.tags
    )
    assert channels["b"].open(tampered) is None


def test_open_rejects_undecodable_payload():
    sim, channels, _ = make_channels()
    auth = channels["a"].auth
    garbage = b"\xff\x00\xff"
    sealed = Sealed(sender="a", payload=garbage, tags={"b": auth.mac("b", garbage)})
    assert channels["b"].open(sealed) is None
    assert channels["b"].rejected == 1


def test_open_rejects_non_sealed():
    _sim, channels, _ = make_channels()
    assert channels["b"].open("just a string") is None


def test_broadcast_uses_one_mac_vector():
    sim, channels, inboxes = make_channels(("a", "b", "c"))
    channels["a"].broadcast(["b", "c"], Stop(regency=2))
    sim.run()
    sealed_b = inboxes["b"][0]
    sealed_c = inboxes["c"][0]
    assert sealed_b == sealed_c  # same envelope, per-receiver tags inside
    assert set(sealed_b.tags) == {"b", "c"}
    assert channels["b"].open(sealed_b) == (Stop(regency=2), "a")
    assert channels["c"].open(sealed_c) == (Stop(regency=2), "a")


def test_broadcast_skips_self_by_default():
    sim, channels, inboxes = make_channels(("a", "b"))
    channels["a"].broadcast(["a", "b"], Stop(regency=1))
    sim.run()
    assert inboxes["a"] == []
    assert len(inboxes["b"]) == 1


def test_replayed_envelope_to_wrong_receiver_fails():
    """A tag made for b does not verify at c (no cross-channel replay)."""
    sim, channels, _ = make_channels(("a", "b", "c"))
    sealed = channels["a"].seal(Stop(regency=1), receivers=["b"])
    forged = Sealed(sender="a", payload=sealed.payload, tags={"c": sealed.tags["b"]})
    assert channels["c"].open(forged) is None


def test_sealed_wire_size_matches_real_encoding():
    """The arithmetic size hint must equal the actual encoded length."""
    from repro.bftsmart.messages import ClientRequest
    from repro.bftsmart.channel import sealed_wire_size
    from repro.wire import encode

    sim, channels, _ = make_channels(("a", "b", "c", "d"))
    messages = [
        Stop(regency=1),
        ClientRequest(
            client_id="a", sequence=9, operation=bytes(300), reply_to="a"
        ),
    ]
    for message in messages:
        for receivers in (["b"], ["b", "c"], ["b", "c", "d"]):
            sealed = channels["a"].seal(message, receivers=receivers)
            assert sealed_wire_size(sealed) == len(encode(sealed))


def test_decode_share_open_returns_equal_message_without_reencoding():
    """Receivers of a seeded envelope see the sender's exact message."""
    from repro.perf import clear_hot_path_caches

    sim, channels, _ = make_channels(("a", "b"))
    message = Stop(regency=4)
    clear_hot_path_caches()
    sealed = channels["a"].seal(message, receivers=["b"])
    opened, sender = channels["b"].open(sealed)
    assert sender == "a"
    assert opened == message
    # Seeded at seal time: no decode happened on the open path.
    assert opened is message
