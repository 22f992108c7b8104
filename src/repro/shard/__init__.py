"""Sharded SMaRt-SCADA: N independent BFT groups behind one namespace.

One replicated Master tops out near the paper's Figure 8 ceiling no
matter how deep the consensus pipeline goes — execution is serial by
construction (§III-B challenge b). The only remaining axis is
horizontal: partition the *item namespace* across several independent
BFT-SMaRt groups, each with its own leader, pipeline, WAL and view, and
hide the partitioning behind the existing ProxyFrontend / ProxyHMI
transparency layer so neither the Frontends nor the HMI can tell the
difference (the same seam the paper used to hide replication itself).

The hard parts this package owns:

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
- :mod:`repro.shard.split` — a live shard split: migrate an item range
  between groups under traffic, then optionally grow the target group
  through the signed reconfiguration protocol.

The deployment itself is not in this package: sharding is a topology
parameter of the one SMaRt-SCADA builder and handle in
:mod:`repro.core.system` (``build_sharded_scada`` is re-exported here).

Exports resolve lazily (PEP 562): :mod:`repro.core.adapter` imports the
shard wire messages, so this ``__init__`` must not import
:mod:`repro.core` at module time.
"""

_EXPORTS = {
    "AlarmCorrelator": "repro.shard.correlate",
    "CORRELATED_ALARM": "repro.shard.correlate",
    "GlobalAeMerger": "repro.shard.merge",
    "ShardExport": "repro.shard.messages",
    "ShardImport": "repro.shard.messages",
    "ShardMap": "repro.shard.map",
    "ShardRouter": "repro.shard.map",
    "ShardSplitter": "repro.shard.split",
    "ShardedScadaConfig": "repro.shard.config",
    "SplitReport": "repro.shard.split",
    "build_sharded_scada": "repro.core.system",
    "hash_shard": "repro.shard.map",
    "merge_event_streams": "repro.shard.merge",
    "merge_key": "repro.shard.merge",
    "shard_replica_address": "repro.shard.config",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
