"""Network endpoints: the addressable attachment points of components."""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:
    from repro.net.network import Network


class Endpoint:
    """One addressable network attachment.

    Incoming messages go to the registered handler
    (``handler(payload, src)``); an endpoint with no handler drops them.
    """

    def __init__(self, network: "Network", address: str) -> None:
        self.network = network
        self.address = address
        #: Called as ``handler(payload, src)`` for every delivery; the
        #: network calls it directly. Until :meth:`set_handler` replaces
        #: it, deliveries are dropped.
        self._handler = _drop
        #: A downed endpoint neither sends nor receives (crashed node).
        self.down = False

    def set_handler(self, handler) -> None:
        """Route deliveries to ``handler(payload, src)``."""
        self._handler = handler

    def send(
        self,
        dst: str,
        payload,
        kind: str | None = None,
        size_hint: int | None = None,
    ) -> None:
        """Send ``payload`` to the endpoint addressed ``dst``.

        ``size_hint`` is forwarded to :meth:`Network.send`; pass it only
        when it is the exact canonical wire size of ``payload``.
        """
        if self.down:
            return
        self.network.send(self.address, dst, payload, kind, size_hint)

    def _deliver(self, payload, src: str) -> None:
        if not self.down:
            self._handler(payload, src)

    def __repr__(self) -> str:
        return f"<Endpoint {self.address}>"


def _drop(payload, src: str) -> None:
    """What an endpoint with no handler does with a delivery."""
