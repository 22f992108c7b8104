"""Sharding primitives: N independent BFT groups behind one namespace.

One replicated Master tops out near the paper's Figure 8 ceiling no
matter how deep the consensus pipeline goes — execution is serial by
construction (§III-B challenge b). The only remaining axis is
horizontal: partition the *item namespace* across several independent
BFT-SMaRt groups, each with its own leader, pipeline, WAL and view, and
hide the partitioning behind the existing ProxyFrontend / ProxyHMI
transparency layer so neither the Frontends nor the HMI can tell the
difference (the same seam the paper used to hide replication itself).

This package is a leaf below :mod:`repro.core`, which uses it:

- :mod:`repro.shard.map` — the item→group partition (hash plus split pins),
  expressed as configuration, with a resolve-once router cache so the
  hot path pays no per-request hashing.
- :mod:`repro.shard.merge` — a deterministic *global* order for the AE
  event stream over the per-shard decision logs: events sort by their
  consensus-assigned logical timestamp with the shard id (then the
  per-shard commit order) as tiebreak, so every observer derives the
  identical global sequence.
- :mod:`repro.shard.correlate` — cross-shard alarm correlation over
  that merged stream.
- :mod:`repro.shard.messages` — the two ordered commands of a live split.

The deployment, its topology config and the split protocol live in
:mod:`repro.core` (``system``, ``config``, ``split``).
"""

from repro.shard.correlate import CORRELATED_ALARM, AlarmCorrelator
from repro.shard.map import ShardMap, ShardRouter, hash_shard
from repro.shard.merge import GlobalAeMerger, merge_event_streams, merge_key
from repro.shard.messages import ShardExport, ShardImport

__all__ = [
    "AlarmCorrelator",
    "CORRELATED_ALARM",
    "GlobalAeMerger",
    "ShardExport",
    "ShardImport",
    "ShardMap",
    "ShardRouter",
    "hash_shard",
    "merge_event_streams",
    "merge_key",
]


def __getattr__(name: str):
    # ``bench/workloads.py`` imports these two from here. Resolved on
    # first use: ``repro.core.adapter`` is mid-import when it reaches
    # ``repro.shard.messages``, so an eager import would re-enter it.
    if name in ("ShardedScadaConfig", "build_sharded_scada"):
        import repro.core

        return getattr(repro.core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
