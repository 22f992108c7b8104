"""Network endpoints: the addressable attachment points of components."""

from __future__ import annotations

import typing

from repro.sim.channels import Channel

if typing.TYPE_CHECKING:
    from repro.net.network import Network


class Endpoint:
    """One addressable network attachment.

    Incoming messages go to the registered handler if one is set
    (``handler(payload, src)``), otherwise they are buffered in
    :attr:`inbox` for a process to ``yield endpoint.inbox.get()``.
    """

    def __init__(self, network: "Network", address: str) -> None:
        self.network = network
        self.address = address
        self.inbox = Channel(network.sim, name=f"inbox:{address}")
        #: Called as ``handler(payload, src)`` for every delivery; the
        #: network calls it directly. Until :meth:`set_handler` replaces
        #: it, deliveries are buffered in :attr:`inbox`.
        self._handler = self._to_inbox
        #: A downed endpoint neither sends nor receives (crashed node).
        self.down = False

    def set_handler(self, handler) -> None:
        """Route deliveries to ``handler(payload, src)`` instead of inbox."""
        self._handler = handler

    def _to_inbox(self, payload, src: str) -> None:
        self.inbox.put(payload)

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
