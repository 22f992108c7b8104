"""SMaRt-SCADA: the paper's contribution — a BFT SCADA Master.

Integrates the :mod:`repro.neoscada` Master with the
:mod:`repro.bftsmart` replication library through proxies (Figure 5),
addressing the four challenges of §III-B: a single ordered entry point,
sequential deterministic execution, ContextInfo-supplied timestamps, and
ordering-tagged asynchronous messages with f+1 voting — plus the
logical-timeout protocol of §IV-D.
"""

from repro.core.adapter import SCADA_STREAM, ScadaService
from repro.core.config import (
    DEFAULT_HOP_LATENCY,
    DEFAULT_LOCAL_LATENCY,
    SmartScadaConfig,
    jitter_bound,
    neoscada_costs,
    smartscada_costs,
)
from repro.core.context import ContextInfo
from repro.core.proxy_frontend import ProxyFrontend
from repro.core.proxy_hmi import ProxyHMI
from repro.core.proxy_master import ProxyMaster
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
    "SmartScadaConfig",
    "SmartScadaSystem",
    "build_neoscada",
    "build_sharded_scada",
    "build_smartscada",
    "jitter_bound",
    "make_network",
    "neoscada_costs",
    "smartscada_costs",
]
