"""Handler chains: the per-item processing pipeline of the Master."""

from __future__ import annotations

from repro.neoscada.handlers.base import Handler, HandlerContext, HandlerResult
from repro.neoscada.values import DataValue


class HandlerChain:
    """An ordered list of handlers applied to each item message.

    The chain feeds each handler the previous handler's output value,
    accumulates every event raised along the way, and short-circuits on
    the first blocking handler (writes only reach the Frontend if no
    handler blocked them — paper §II-B-b).
    """

    def __init__(self, handlers: list | None = None) -> None:
        self.handlers: list[Handler] = list(handlers or [])

    @property
    def cost(self) -> float:
        """Total simulated CPU cost of one trip through the chain."""
        return sum(handler.cost for handler in self.handlers)

    def process(self, value: DataValue, ctx: HandlerContext) -> HandlerResult:
        events: list = []
        current = value
        for handler in self.handlers:
            result = handler.process(current, ctx)
            events.extend(result.events)
            current = result.value
            if result.blocked:
                return HandlerResult(
                    value=current,
                    events=events,
                    blocked=True,
                    block_reason=result.block_reason,
                )
        return HandlerResult(value=current, events=events)

    def state(self) -> tuple:
        return tuple(handler.state() for handler in self.handlers)

    def restore(self, state: tuple) -> None:
        if len(state) != len(self.handlers):
            raise ValueError("handler chain shape changed since snapshot")
        for handler, handler_state in zip(self.handlers, state):
            handler.restore(handler_state)
