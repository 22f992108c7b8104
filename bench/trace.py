"""Outside-in layer tracing: host-time spans around each layer's entry points.

Nothing under ``src/`` knows about this module. :class:`LayerTracer`
replaces the attributes named in :data:`TARGETS` with timing wrappers
(``install``) and puts the originals back (``restore``). A *layer* is a
package under ``src/repro``: the layer of a target is the second
component of its module path, so the attribution follows the source
tree and cannot drift from it.

Each wrapped call is one span: layer, name, start, end, parent. A span's
*self time* is its duration minus the time its child spans cover, so the
self times of all spans add up to the duration of the root spans
(``Simulator.run``) and a layer's ``cpu_share`` is its self time over
that total. Spans are kept in memory — aggregates for every call, the
first :data:`RAW_SPAN_CAP` raw spans as well — and written out by the
caller when the pass ends.

Wrappers must be installed *before* a deployment is built: components
hand bound methods (``endpoint.set_handler(self._on_network_message)``)
to the network at construction time, and a bound method captures
whatever the class attribute was at that moment.
"""

from __future__ import annotations

import importlib
import sys
import time

#: Raw spans kept per traced pass (aggregates cover every call).
RAW_SPAN_CAP = 100_000


def _len_of_result(args, result) -> int:
    return len(result)


def _second_arg(args, result) -> int:
    return args[1]


#: ``module:attribute.path`` of every wrapped entry point, with an
#: optional ``size_of(args, result)`` whose values are summed per target
#: (encoded bytes, wire bytes). Class attributes are patched on the
#: class; module-level functions are patched in every ``repro`` module
#: that imported them by name.
TARGETS: tuple = (
    # wire — the canonical codec.
    ("repro.wire.codec:Codec.encode", _len_of_result),
    ("repro.wire.codec:Codec.decode", None),
    ("repro.wire.codec:Codec.decode_from", None),
    ("repro.wire.codec:encode_cached", None),
    # crypto — MACs, digests, signatures.
    ("repro.crypto.mac:Authenticator.mac", None),
    ("repro.crypto.mac:Authenticator.verify", None),
    ("repro.crypto.digest:digest", None),
    ("repro.crypto.signatures:Signer.sign", None),
    ("repro.crypto.signatures:Verifier.verify", None),
    # sim — the event kernel: the run loop and the scheduling calls the
    # other layers make into it.
    ("repro.sim.kernel:Simulator.run", None),
    ("repro.sim.kernel:Simulator.call_later", None),
    ("repro.sim.kernel:Simulator.cancel_timer", None),
    ("repro.sim.kernel:Simulator.timeout", None),
    # net — send, the latency model (sized in wire bytes), delivery.
    ("repro.net.network:Network.send", None),
    ("repro.net.network:Network._deliver_fast", None),
    ("repro.net.network:Network._deliver", None),
    ("repro.net.latency:LanLatency.delay", _second_arg),
    ("repro.net.latency:ConstantLatency.delay", _second_arg),
    # bftsmart — replica message entry, execution, pushes; client invoke,
    # reply entry, retransmission; push voting.
    ("repro.bftsmart.replica:ServiceReplica._on_network_message", None),
    ("repro.bftsmart.replica:ServiceReplica._batch_timer_fired", None),
    ("repro.bftsmart.replica:ServiceReplica._execute_one", None),
    ("repro.bftsmart.replica:ServiceReplica.push", None),
    ("repro.bftsmart.replica:ServiceReplica.recover_from_disk", None),
    ("repro.bftsmart.service:EchoService.execute", None),
    ("repro.bftsmart.client:ServiceProxy.invoke_ordered", None),
    ("repro.bftsmart.client:ServiceProxy.invoke_unordered", None),
    ("repro.bftsmart.client:ServiceProxy._on_network_message", None),
    ("repro.bftsmart.client:ServiceProxy._retransmit", None),
    ("repro.bftsmart.client:PushVoter.on_push", None),
    # storage — the replica's durable-state hooks.
    ("repro.storage.replica_storage:ReplicaStorage.on_decided", None),
    ("repro.storage.replica_storage:ReplicaStorage.on_checkpoint", None),
    ("repro.storage.replica_storage:ReplicaStorage.reinstall", None),
    ("repro.storage.replica_storage:ReplicaStorage.recover", None),
    # neoscada — the Master core behind the adapter, Frontend and HMI.
    ("repro.neoscada.master:ScadaMaster.classify", None),
    ("repro.neoscada.master:ScadaMaster.cost_of", None),
    ("repro.neoscada.master:ScadaMaster.execute", None),
    ("repro.neoscada.master:ScadaMaster.commit_events", None),
    ("repro.neoscada.frontend:Frontend.inject_update", None),
    ("repro.neoscada.frontend:Frontend._on_message", None),
    ("repro.neoscada.hmi:HMI.write", None),
    ("repro.neoscada.hmi:HMI._on_message", None),
    # core — the adapter and the two proxies.
    ("repro.core.adapter:ScadaService.cost_of", None),
    ("repro.core.adapter:ScadaService.execute", None),
    ("repro.core.adapter:ScadaService.execute_unordered", None),
    ("repro.core.adapter:ScadaService._master_transport", None),
    ("repro.core.proxy_frontend:ProxyFrontend._on_local_message", None),
    ("repro.core.proxy_frontend:ProxyFrontend._on_push", None),
    ("repro.core.proxy_hmi:ProxyHMI._on_local_message", None),
    ("repro.core.proxy_hmi:ProxyHMI._on_push", None),
    ("repro.core.timeout:LogicalTimeoutManager._expire", None),
    # shard — routing and the global AE merge.
    ("repro.shard.map:ShardRouter.route", None),
    ("repro.shard.merge:GlobalAeMerger.offer", None),
    ("repro.shard.merge:GlobalAeMerger._on_timer", None),
    ("repro.shard.correlate:AlarmCorrelator.observe", None),
)


class WrapTargetMissing(LookupError):
    """A wrap target no longer exists: a layer would silently go dark."""


def layer_of(target: str) -> str:
    """``repro.<layer>....:attr`` -> ``<layer>``."""
    return target.split(":", 1)[0].split(".")[1]


def _resolve(target: str):
    """``(owner, attribute name, original)`` for one target string."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise WrapTargetMissing(f"{target}: {exc}") from exc
    *parents, attr = path.split(".")
    for name in parents:
        if not hasattr(owner, name):
            raise WrapTargetMissing(f"{target}: no {name!r} in {owner!r}")
        owner = getattr(owner, name)
    if attr not in vars(owner):
        # Must be defined on the owner itself: patching an inherited
        # attribute would shadow it instead of wrapping it.
        raise WrapTargetMissing(f"{target}: {owner!r} does not define {attr!r}")
    return owner, attr, vars(owner)[attr]


class LayerTracer:
    """Installs the wrappers, collects spans while ``active``."""

    def __init__(self, targets: tuple = TARGETS) -> None:
        self.targets = targets
        #: Spans are recorded only while True (the workload switches it
        #: on for the traffic phase, off for build and checks).
        self.active = False
        self.names: list = []
        self.layers: list = []
        self.calls: list = []
        self.total_s: list = []
        self.self_s: list = []
        #: Calls during which no other wrapped call ran.
        self.leaf_calls: list = []
        self.size_sum: list = []
        #: ``(target index, start, end, parent span id, span id)``.
        self.raw: list = []
        self._stack: list = []
        self._next_id = 0
        #: ``(owner, attribute, original)`` for every patched attribute.
        self._patched: list = []

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("wrappers already installed")
        resolved = [(_resolve(target), size_of) for target, size_of in self.targets]
        for index, ((owner, attr, original), size_of) in enumerate(resolved):
            target = self.targets[index][0]
            self.names.append(target.split(":", 1)[1])
            self.layers.append(layer_of(target))
            for series in (self.calls, self.leaf_calls, self.size_sum):
                series.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
            wrapper = self._make_wrapper(original, index, size_of)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
            else:
                self._patch_function_everywhere(original, wrapper)
        self._wrap_ring_kernel_instances()

    def _wrap_ring_kernel_instances(self) -> None:
        # The ring kernel (REPRO_KERNEL=ring) builds its entry points as
        # per-instance closures, so there is no class attribute to patch:
        # wrap them on each instance right after ``_build`` made them,
        # under the same span names as the heap kernel's methods.
        owner, attr, build = _resolve("repro.sim.fastkernel:RingSimulator._build")
        span_of = {
            "run": "Simulator.run",
            "call_later": "Simulator.call_later",
            "defer": "Simulator.call_later",
            "timer": "Simulator.call_later",
            "cancel_timer": "Simulator.cancel_timer",
        }

        def build_and_wrap(sim) -> None:
            build(sim)
            for name, span in span_of.items():
                if span in self.names:
                    index = self.names.index(span)
                    setattr(sim, name, self._make_wrapper(getattr(sim, name), index, None))

        self._patch(owner, attr, build, build_and_wrap)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def _patch_function_everywhere(self, original, wrapper) -> None:
        # ``from repro.wire.codec import encode_cached`` binds the
        # function object into the importer's namespace, so the module
        # that defines it is only one of the places that hold it.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, original, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self.active = False

    def patched_attributes(self) -> list:
        """``(owner, attribute, original)`` triples currently patched."""
        return list(self._patched)

    # -- recording ----------------------------------------------------------

    def _make_wrapper(self, original, index: int, size_of):
        tracer = self
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        leaf_calls, size_sum, raw = self.leaf_calls, self.size_sum, self.raw
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span_id = tracer._next_id = tracer._next_id + 1
            parent = stack[-1] if stack else None
            frame = [0.0, 0, span_id]  # child seconds, child spans, id
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[index] += 1
                total_s[index] += duration
                self_s[index] += duration - frame[0]
                if not frame[1]:
                    leaf_calls[index] += 1
                if parent is not None:
                    parent[0] += duration
                    parent[1] += 1
                if len(raw) < RAW_SPAN_CAP:
                    raw.append(
                        (index, start, end, parent[2] if parent else 0, span_id)
                    )
            if size_of is not None:
                size_sum[index] += size_of(args, result)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", "wrapper")
        return wrapper

    # -- results ------------------------------------------------------------

    def count(self, name: str, field: str = "calls") -> float:
        """Sum of one aggregate over every target with this short name."""
        series = getattr(self, field)
        return sum(series[i] for i, n in enumerate(self.names) if n == name)

    def cpu_shares(self) -> dict:
        """Layer -> self time / total self time (sums to 1)."""
        seconds: dict = {}
        for layer, value in zip(self.layers, self.self_s):
            seconds[layer] = seconds.get(layer, 0.0) + value
        total = sum(seconds.values())
        return {
            layer: (value / total if total else 0.0)
            for layer, value in seconds.items()
        }

    def call_counts(self) -> dict:
        """``layer:name`` -> calls; repeats exactly for a given seed."""
        return {
            f"{layer}:{name}": calls
            for layer, name, calls in zip(self.layers, self.names, self.calls)
            if calls
        }

    def to_dict(self) -> dict:
        """Aggregates plus the retained raw spans, JSON-ready."""
        return {
            "targets": [
                {
                    "layer": self.layers[i],
                    "name": self.names[i],
                    "calls": self.calls[i],
                    "total_s": self.total_s[i],
                    "self_s": self.self_s[i],
                    "leaf_calls": self.leaf_calls[i],
                    "size_sum": self.size_sum[i],
                }
                for i in range(len(self.names))
            ],
            "cpu_share": self.cpu_shares(),
            "raw_span_cap": RAW_SPAN_CAP,
            "raw_span_fields": ["target", "start_s", "end_s", "parent", "id"],
            "raw_spans": [list(span) for span in self.raw],
        }
