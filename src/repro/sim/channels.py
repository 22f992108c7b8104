"""FIFO channels (mailboxes) for inter-process communication.

A :class:`Channel` is an ordered queue of items. ``put`` returns an event
that triggers once the item has been accepted (immediately for unbounded
channels, possibly later for bounded ones); ``get`` returns an event that
triggers with the next item. Both sides preserve FIFO ordering of waiters,
keeping delivery deterministic.
"""

from __future__ import annotations

import typing
from collections import deque

from repro.sim.events import Event

if typing.TYPE_CHECKING:
    from repro.sim.kernel import Simulator


class ChannelClosed(Exception):
    """Raised to getters/putters when the channel is closed."""


class _GetEvent(Event):
    __slots__ = ("channel", "_cancelled")

    def __init__(self, channel: "Channel") -> None:
        super().__init__(channel.sim)
        self.channel = channel
        self._cancelled = False

    def _label(self) -> str:
        return f"get:{self.channel.name}"

    def cancel(self) -> None:
        """Withdraw this get if it has not been served yet."""
        if not self.triggered:
            self._cancelled = True


class _PutEvent(Event):
    __slots__ = ("channel", "item", "_cancelled")

    def __init__(self, channel: "Channel", item) -> None:
        super().__init__(channel.sim)
        self.channel = channel
        self.item = item
        self._cancelled = False

    def _label(self) -> str:
        return f"put:{self.channel.name}"

    def cancel(self) -> None:
        if not self.triggered:
            self._cancelled = True


class Channel:
    """A FIFO channel with optional capacity bound.

    Parameters
    ----------
    sim:
        Owning simulator.
    capacity:
        Maximum number of buffered items; ``None`` means unbounded, in
        which case ``put`` always succeeds immediately.
    name:
        Label for debugging.
    """

    def __init__(
        self,
        sim: "Simulator",
        capacity: int | None = None,
        name: str = "channel",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: deque = deque()
        self._getters: deque[_GetEvent] = deque()
        self._putters: deque[_PutEvent] = deque()
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    # -- operations --------------------------------------------------------

    def put(self, item) -> _PutEvent:
        """Offer ``item``; the returned event triggers once it is accepted."""
        event = _PutEvent(self, item)
        if self._closed:
            event.fail(ChannelClosed(self.name))
            return event
        self._putters.append(event)
        self._balance()
        return event

    def try_put(self, item) -> bool:
        """Non-blocking put. Returns False if the channel is full or closed."""
        if self._closed:
            return False
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        event = self.put(item)
        # put() above either buffered it or handed it to a getter.
        assert event.triggered
        return True

    def get(self) -> _GetEvent:
        """The returned event triggers with the next item."""
        event = _GetEvent(self)
        if self._closed and not self._items and not self._putters:
            event.fail(ChannelClosed(self.name))
            return event
        self._getters.append(event)
        self._balance()
        return event

    def close(self) -> None:
        """Close the channel: pending waiters fail with ChannelClosed.

        Items already buffered are still delivered to future ``get`` calls.
        """
        if self._closed:
            return
        self._closed = True
        for putter in self._putters:
            if not putter.triggered and not putter._cancelled:
                putter.fail(ChannelClosed(self.name))
        self._putters.clear()
        if not self._items:
            for getter in self._getters:
                if not getter.triggered and not getter._cancelled:
                    getter.fail(ChannelClosed(self.name))
            self._getters.clear()

    # -- matching ----------------------------------------------------------

    def _balance(self) -> None:
        """Move items from putters to the buffer and buffer to getters."""
        progressed = True
        while progressed:
            progressed = False
            # Accept putters while there is room.
            while self._putters:
                putter = self._putters[0]
                if putter._cancelled or putter.triggered:
                    self._putters.popleft()
                    continue
                if self.capacity is not None and len(self._items) >= self.capacity:
                    break
                self._putters.popleft()
                self._items.append(putter.item)
                putter.succeed(None)
                progressed = True
            # Serve getters while items exist.
            while self._getters and self._items:
                getter = self._getters.popleft()
                if getter._cancelled or getter.triggered:
                    continue
                getter.succeed(self._items.popleft())
                progressed = True
