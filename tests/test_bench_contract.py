"""Tier-1 guard for what ``bench/`` pins of the program from outside.

``bench/trace.py`` wraps the layers' entry points by name,
``bench/workloads.py`` reads ``repro.perf`` counters by key and replica
fields by attribute, and every ``bench/*.py`` imports names from
``repro`` modules. Nothing under ``src/`` imports ``bench/``, so a
refactor that renames one of those names would otherwise fail only in a
traced benchmark run nobody made.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pathlib

import pytest

import repro.perf
from repro.bftsmart import EchoService, GroupConfig, build_group
from repro.net import Network
from repro.perf import PERF, PerfSwitches
from repro.sim import RingSimulator, Simulator
from repro.storage import ReplicaStorage

_BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
_TRACE_PY = _BENCH / "trace.py"


def _load_trace():
    spec = importlib.util.spec_from_file_location("_bench_trace_contract", _TRACE_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


trace = _load_trace()


def test_target_list_is_nontrivial():
    assert len(trace.TARGETS) >= 50


@pytest.mark.parametrize(
    "target",
    [name for name, _ in trace.TARGETS] + ["repro.sim.fastkernel:RingSimulator._build"],
)
def test_wrap_target_resolves(target):
    # _resolve raises WrapTargetMissing unless the attribute is defined on
    # the named owner itself (an inherited one cannot be patched in place).
    owner, attr, original = trace._resolve(target)
    assert callable(original), (owner, attr)


def test_ring_kernel_exposes_the_per_instance_entry_points_the_tracer_wraps():
    sim = RingSimulator()
    for name in ("run", "call_later", "defer", "timer", "cancel_timer"):
        assert callable(vars(sim)[name]), name
    # ... and the four names it patches on the Simulator class itself: run
    # / call_later / cancel_timer are declarations there, timeout a method.
    for name in ("run", "call_later", "cancel_timer", "timeout"):
        assert callable(vars(Simulator)[name]), name


def _bench_imports():
    for path in sorted(_BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                for alias in node.names:
                    yield f"{path.name}:{node.module}:{alias.name}"


@pytest.mark.parametrize("pin", sorted(set(_bench_imports())))
def test_bench_import_resolves(pin):
    _file, module, name = pin.split(":")
    assert hasattr(importlib.import_module(module), name), pin


def test_perf_names_the_benchmark_reads():
    # bench reads the five counters by key. A record counts as a hit: a
    # MAC tag taken from an envelope's record is a ``mac`` hit, a message
    # taken from it or from a request's or push's body record a
    # ``decode_share`` hit, a signing payload taken from a request's
    # record a ``signing_payload`` hit.
    assert PERF.kernel == "ring"  # bench/run.py fingerprints it
    stats = PERF.stats_map()
    assert {
        "codec_encode", "digest", "mac", "decode_share", "signing_payload"
    } <= set(stats)
    for counts in stats.values():
        assert {"hits", "misses"} <= set(counts)
    assert callable(repro.perf.clear_hot_path_caches)
    # Each table owner registered its clear function when it was imported:
    # the content-keyed digest memo and the codec's string-encoding table.
    # Every other memo lives on the object it describes and has nothing to
    # clear.
    assert sorted(clear.__name__ for clear in PERF._clears) == [
        "clear_digest_cache", "clear_encode_cache",
    ]


def test_perf_has_no_on_off_switch_left():
    # ISSUE 14 deleted the ten switches, the legacy branches behind them
    # and the functions that toggled them; the caches are unconditional
    # and pinned by tests/golden. Nothing else is defined here: the one
    # other slot is the list of clear functions the cache owners register.
    assert PerfSwitches.__slots__ == ("stats", "_clears")
    assert {
        name
        for name, value in vars(repro.perf).items()
        if getattr(value, "__module__", None) == "repro.perf"
    } == {"CacheStats", "PerfSwitches", "PERF", "clear_hot_path_caches"}


def test_default_kernel_is_the_ring(monkeypatch):
    # The ring is the only kernel: nothing selects another one, neither a
    # constructor argument nor the environment variable that used to.
    monkeypatch.setenv("REPRO_KERNEL", "heap")
    assert PerfSwitches().kernel == PERF.kernel == "ring"
    assert type(Simulator()) is type(Simulator(seed=3)) is RingSimulator
    with pytest.raises(TypeError):
        Simulator(**{"kernel": "heap"})
    with pytest.raises(TypeError):
        RingSimulator(**{"kernel": "ring"})


def test_replica_fields_the_benchmark_reads():
    # bench/workloads.py sums these counters over every incarnation and
    # probes the failover victim's rejoin through the rest.
    sim = Simulator(seed=1)
    config = GroupConfig()
    storage = ReplicaStorage(config.addresses[0])
    replica, *_peers = build_group(
        sim, Network(sim), config, EchoService, storages={0: storage}
    )
    assert set(replica.stats) == {
        "proposals", "decided", "executed", "replies", "pushes",
        "rejected_requests", "checkpoints", "decided_out_of_order",
        "pipeline_occupancy_sum", "pipeline_occupancy_peak",
        "pipeline_occupancy_samples",
    }
    assert replica.synchronizer.changes_completed == 0
    assert replica.last_decided == -1
    assert replica.is_leader and replica.active
    assert replica.recovered_from_disk.entries == []
    assert replica.state_transfer.bytes_installed == 0
    replica.halt()
    assert not replica.active
