"""Unit tests for group configuration and views."""

import pytest

from repro.bftsmart import GroupConfig, View, replica_address


def test_default_config_is_4_replicas_f1():
    cfg = GroupConfig()
    assert cfg.n == 4
    assert cfg.f == 1
    assert cfg.addresses == ("replica-0", "replica-1", "replica-2", "replica-3")


def test_n_must_satisfy_bft_bound():
    with pytest.raises(ValueError):
        GroupConfig(n=3, f=1)
    GroupConfig(n=4, f=1)
    GroupConfig(n=7, f=2)
    with pytest.raises(ValueError):
        GroupConfig(n=6, f=2)


def test_negative_f_rejected():
    with pytest.raises(ValueError):
        GroupConfig(n=1, f=-1)


def test_quorum_sizes_match_bft_smart():
    view = View(0, GroupConfig(n=4, f=1).addresses, 1)
    assert view.consensus_quorum == 3  # WRITE and ACCEPT: 2f+1 at n=3f+1
    assert view.strong_quorum == 3  # STOPs that install a regency
    assert view.weak_quorum == 2  # STOPs to join, ordered replies, pushes
    assert view.live_quorum == 3  # STOP-DATAs, unordered replies

    view7 = View(0, GroupConfig(n=7, f=2).addresses, 2)
    assert view7.consensus_quorum == 5
    assert view7.weak_quorum == 3

    # A reconfiguration that adds a fifth replica keeps f=1: consensus
    # now needs 4 of 5, while 2f+1 and f+1 stay put.
    joined = View(1, view.addresses + ("replica-4",), 1)
    assert joined.consensus_quorum == 4
    assert joined.strong_quorum == 3
    assert joined.weak_quorum == 2
    assert joined.live_quorum == 4


def test_explicit_addresses_validated():
    GroupConfig(n=4, f=1, addresses=("a", "b", "c", "d"))
    with pytest.raises(ValueError):
        GroupConfig(n=4, f=1, addresses=("a", "b"))


def test_batch_max_positive():
    with pytest.raises(ValueError):
        GroupConfig(batch_max=0)


@pytest.mark.parametrize(
    "bad",
    [
        # Would divide by zero in the executor on the first decision.
        {"checkpoint_interval": 0},
        # Would park the watchdog on zero-length sleeps forever.
        {"request_timeout": 0.0},
        {"sync_timeout": 0.0},
        {"request_timeout": -1.0},
        {"batch_wait": -0.001},
    ],
    ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
)
def test_unusable_timing_is_rejected_at_construction(bad):
    with pytest.raises(ValueError):
        GroupConfig(**bad)
    # The boundary values that do work still build.
    GroupConfig(checkpoint_interval=1, batch_wait=0.0)


def test_replica_address_format():
    assert replica_address(3) == "replica-3"


def test_view_leader_rotation():
    view = View(0, ("a", "b", "c", "d"), 1)
    assert view.leader_for(0) == "a"
    assert view.leader_for(1) == "b"
    assert view.leader_for(4) == "a"
    assert view.leader_for(7) == "d"


def test_view_membership_queries():
    view = View(0, ("a", "b", "c", "d"), 1)
    assert view.n == 4
    assert view.contains("c")
    assert not view.contains("z")
    assert view.index_of("b") == 1


def test_view_respects_bft_bound():
    with pytest.raises(ValueError):
        View(0, ("a", "b", "c"), 1)
