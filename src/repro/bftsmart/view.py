"""Views: the current membership and leader of a replication group.

A view changes only through reconfiguration (adding/removing replicas);
leader changes within a view bump the *regency* instead, following
BFT-SMaRt's Mod-SMaRt terminology.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.wire import wire_type


@wire_type(10)
@dataclass(frozen=True)
class View:
    """Immutable membership snapshot.

    Attributes
    ----------
    view_id:
        Monotonic view number, bumped by reconfigurations.
    addresses:
        Tuple of replica addresses, index position = replica id.
    f:
        Fault threshold for this membership.
    """

    view_id: int
    addresses: tuple
    f: int

    def __post_init__(self) -> None:
        if len(self.addresses) < 3 * self.f + 1:
            raise ValueError(
                f"view with {len(self.addresses)} replicas cannot tolerate f={self.f}"
            )

    @property
    def n(self) -> int:
        return len(self.addresses)

    # -- the group's quorum arithmetic: defined here and nowhere else ----

    @property
    def consensus_quorum(self) -> int:
        """Matching WRITEs to send ACCEPT, and ACCEPTs to decide:
        ceil((n + f + 1) / 2), so any two intersect in f + 1 replicas."""
        return (self.n + self.f + 2) // 2

    @property
    def strong_quorum(self) -> int:
        """2f + 1: STOPs that install a new regency; the live replicas a
        group must keep through any repair."""
        return 2 * self.f + 1

    @property
    def weak_quorum(self) -> int:
        """f + 1, the smallest set holding a correct replica: STOPs that
        make a replica join, witnesses of a recovered slot, matching
        state replies, ordered replies and pushes a client accepts."""
        return self.f + 1

    @property
    def live_quorum(self) -> int:
        """n - f, the most replies one may wait for while f stay silent:
        STOP-DATAs a new leader collects, matching unordered replies."""
        return self.n - self.f

    def leader_for(self, regency: int) -> str:
        """The leader address under ``regency`` (round-robin rotation)."""
        return self.addresses[regency % self.n]

    def index_of(self, address: str) -> int:
        return self.addresses.index(address)

    def contains(self, address: str) -> bool:
        return address in self.addresses
