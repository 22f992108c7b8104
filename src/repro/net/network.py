"""The simulated message network.

One :class:`Network` instance connects every component of a deployment
(HMI, proxies, replicas, frontends, RTUs). Sending a message:

1. sizes it (canonical wire encoding, unless the caller knows the size),
2. runs it through the fault-injection pipeline,
3. samples the link latency model,
4. schedules delivery on the simulator heap and records the hop in the
   trace.

Messages between co-located components (a component and its own proxy, as
in the paper's deployment where each machine hosts both) can use a
zero-latency *local* link, configured with :meth:`set_link`.
"""

from __future__ import annotations

from repro.net.endpoint import Endpoint
from repro.net.faults import Envelope, FaultInjector
from repro.net.latency import ConstantLatency, LanLatency, LatencyModel
from repro.net.trace import NetworkTrace
from repro.sim.kernel import Simulator
from repro.wire import encode_cached


class UnknownEndpoint(Exception):
    """Raised when sending to an address that was never created."""


class Network:
    """Simulated network connecting named endpoints."""

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        trace: NetworkTrace | None = None,
    ) -> None:
        self.sim = sim
        self.latency = latency if latency is not None else LanLatency(
            rng=sim.rng.stream("net.jitter")
        )
        self.trace = trace if trace is not None else NetworkTrace(enabled=False)
        self.trace.bind_counter(sim.metrics.counter("net.trace.hops"))
        self.faults = FaultInjector(sim.rng.stream("net.faults"))
        # Campaigns read fault-firing counts through the kernel's stats
        # (one deployment has one network; re-registration is harmless).
        sim.register_stats_source("net.faults", self.faults.stats)
        sim.register_stats_source(
            "net",
            lambda: {
                "sent": self.sent,
                "delivered": self.delivered,
                "trace_hops": self.trace.recorded,
                "trace_dropped": self.trace.dropped,
            },
        )
        self._endpoints: dict[str, Endpoint] = {}
        self._links: dict[tuple[str, str], LatencyModel] = {}
        #: Per-directed-link delivery horizon enforcing FIFO (TCP-like)
        #: ordering: jitter may not reorder messages on one connection.
        self._link_clock: dict[tuple[str, str], float] = {}
        #: Total messages handed to the network (pre-fault-pipeline).
        self.sent = 0
        #: Total deliveries performed.
        self.delivered = 0

    # -- topology -----------------------------------------------------------

    def endpoint(self, address: str) -> Endpoint:
        """Create (or fetch) the endpoint for ``address``."""
        existing = self._endpoints.get(address)
        if existing is not None:
            return existing
        endpoint = Endpoint(self, address)
        self._endpoints[address] = endpoint
        return endpoint

    def has_endpoint(self, address: str) -> bool:
        return address in self._endpoints

    def addresses(self) -> list:
        """All registered endpoint addresses, sorted for determinism."""
        return sorted(self._endpoints)

    def set_link(self, src: str, dst: str, model: LatencyModel) -> None:
        """Override the latency model for the directed link src → dst."""
        self._links[(src, dst)] = model

    def set_local_pair(self, a: str, b: str, delay: float = 0.00002) -> None:
        """Mark two addresses as co-located (loopback-speed both ways)."""
        model = ConstantLatency(delay)
        self.set_link(a, b, model)
        self.set_link(b, a, model)

    def crash(self, address: str) -> None:
        """Take an endpoint down: it silently loses all traffic."""
        self.endpoint(address).down = True

    def recover(self, address: str) -> None:
        self.endpoint(address).down = False

    # -- transmission --------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        payload,
        kind: str | None = None,
        size_hint: int | None = None,
    ) -> None:
        """Send ``payload`` from ``src`` to ``dst`` through the pipeline.

        ``size_hint`` lets a caller that already knows the exact canonical
        wire size (e.g. the secure channel, which just sealed the payload)
        skip the sizing encode. Hints must be exact — latency models are a
        function of size, so an inaccurate hint would change the schedule.
        Without a hint the payload is sized by its memoized encoding, so a
        receiver that encodes the same (immutable) message again — a proxy
        submitting it for ordering — reuses these bytes.
        """
        target = self._endpoints.get(dst)
        if target is None:
            raise UnknownEndpoint(f"no endpoint registered at {dst!r}")
        self.sent += 1
        if size_hint is not None:
            size = size_hint
        else:
            size = len(encode_cached(payload))
        if not self.faults.rules and not self.trace.enabled:
            # No fault pipeline and no trace: skip the Envelope/kind
            # bookkeeping entirely. Latency sampling and FIFO link clock
            # are identical to the general path, so the schedule is too.
            sim = self.sim
            now = sim.now
            link = (src, dst)
            model = self._links.get(link, self.latency)
            deliver_at = now + model.delay(size)
            previous = self._link_clock.get(link, 0.0)
            if deliver_at < previous:
                deliver_at = previous
            self._link_clock[link] = deliver_at
            sim.defer(deliver_at - now, self._deliver_fast, target, payload, src)
            return
        if kind is None:
            kind = type(payload).__name__
        envelope = Envelope(
            src=src,
            dst=dst,
            kind=kind,
            size=size,
            payload=payload,
            sent_at=self.sim.now,
        )
        model = self._links.get((src, dst), self.latency)
        link = (src, dst)
        for delivery in self.faults.process(envelope):
            deliver_at = self.sim.now + model.delay(size)
            # FIFO per link: a message never overtakes an earlier one on
            # the same connection. Fault-injected extra delay is applied
            # afterwards (adversarial reordering stays possible).
            deliver_at = max(deliver_at, self._link_clock.get(link, 0.0))
            self._link_clock[link] = deliver_at
            deliver_at += delivery.extra_delay
            self.sim.defer(
                deliver_at - self.sim.now,
                self._deliver,
                target,
                delivery.payload,
                envelope,
                deliver_at - self.sim.now,
            )

    def _deliver_fast(self, target: Endpoint, payload, src: str) -> None:
        if target.down:
            return
        self.delivered += 1
        target._handler(payload, src)

    def _deliver(self, target: Endpoint, payload, envelope: Envelope, delay: float) -> None:
        if target.down:
            return
        self.delivered += 1
        self.trace.record(
            src=envelope.src,
            dst=envelope.dst,
            kind=envelope.kind,
            size=envelope.size,
            sent_at=envelope.sent_at,
            delivered_at=self.sim.now,
        )
        target._deliver(payload, envelope.src)
