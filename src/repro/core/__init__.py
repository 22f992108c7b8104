"""SMaRt-SCADA: the paper's contribution — a BFT SCADA Master.

Integrates the :mod:`repro.neoscada` Master with the
:mod:`repro.bftsmart` replication library through proxies (Figure 5),
addressing the four challenges of §III-B: a single ordered entry point,
sequential deterministic execution, ContextInfo-supplied timestamps, and
ordering-tagged asynchronous messages with f+1 voting — plus the
logical-timeout protocol of §IV-D. Sharding is a topology parameter of
the one deployment (``ShardedScadaConfig``; the classic system is its
1-shard form), and :mod:`repro.core.split` moves items between groups
under traffic.
"""

from repro.core.adapter import SCADA_STREAM, ScadaService
from repro.core.config import (
    DEFAULT_HOP_LATENCY,
    DEFAULT_LOCAL_LATENCY,
    ShardedScadaConfig,
    SmartScadaConfig,
    jitter_bound,
    neoscada_costs,
    shard_replica_address,
    smartscada_costs,
)
from repro.core.context import ContextInfo
from repro.core.proxy_frontend import ProxyFrontend
from repro.core.proxy_hmi import ProxyHMI
from repro.core.proxy_master import ProxyMaster
from repro.core.split import ShardSplitter, SplitReport
from repro.core.system import (
    NeoScadaSystem,
    SmartScadaSystem,
    build_neoscada,
    build_sharded_scada,
    build_smartscada,
    make_network,
)
from repro.core.timeout import LogicalTimeoutManager

__all__ = [
    "ContextInfo",
    "DEFAULT_HOP_LATENCY",
    "DEFAULT_LOCAL_LATENCY",
    "LogicalTimeoutManager",
    "NeoScadaSystem",
    "ProxyFrontend",
    "ProxyHMI",
    "ProxyMaster",
    "SCADA_STREAM",
    "ScadaService",
    "ShardSplitter",
    "ShardedScadaConfig",
    "SmartScadaConfig",
    "SmartScadaSystem",
    "SplitReport",
    "build_neoscada",
    "build_sharded_scada",
    "build_smartscada",
    "jitter_bound",
    "make_network",
    "neoscada_costs",
    "shard_replica_address",
    "smartscada_costs",
]
