"""BFT-SMaRt-style state machine replication, built from scratch.

The stack mirrors the library the paper integrates (Bessani et al.,
DSN'14): Mod-SMaRt total ordering over VP-Consensus (PROPOSE → WRITE →
ACCEPT), a synchronization phase for leader changes, checkpoints + state
transfer, live reconfiguration, a voting client proxy, and asynchronous
server→client pushes (the feature that accommodates SCADA's event-driven
communication pattern, §VI).
"""

from repro.bftsmart.byzantine import (
    Behaviour,
    Equivocating,
    Lying,
    Misdigesting,
    Silent,
    Slow,
    Stuttering,
    Withholding,
)
from repro.bftsmart.client import PushVoter, ServiceProxy
from repro.bftsmart.cluster import build_group, build_proxy
from repro.bftsmart.config import GroupConfig, replica_address
from repro.bftsmart.executor import RECONFIG_MARKER
from repro.bftsmart.messages import (
    AcceptMsg,
    ClientRequest,
    FetchRequests,
    Propose,
    PushMessage,
    ReconfigRequest,
    Reply,
    RequestBatch,
    Sealed,
    StateReply,
    StateRequest,
    Stop,
    StopData,
    Sync,
    WriteMsg,
)
from repro.bftsmart.reconfiguration import Administrator, ReconfigResult
from repro.bftsmart.replica import ServiceReplica
from repro.bftsmart.service import (
    CounterService,
    EchoService,
    KeyValueService,
    MessageContext,
    Service,
)
from repro.bftsmart.view import View

__all__ = [
    "AcceptMsg",
    "Administrator",
    "Behaviour",
    "ReconfigResult",
    "ClientRequest",
    "CounterService",
    "EchoService",
    "Equivocating",
    "FetchRequests",
    "GroupConfig",
    "KeyValueService",
    "Lying",
    "MessageContext",
    "Misdigesting",
    "Propose",
    "PushMessage",
    "PushVoter",
    "RECONFIG_MARKER",
    "ReconfigRequest",
    "Reply",
    "RequestBatch",
    "Sealed",
    "Service",
    "ServiceProxy",
    "ServiceReplica",
    "Silent",
    "Slow",
    "StateReply",
    "StateRequest",
    "Stop",
    "StopData",
    "Stuttering",
    "Sync",
    "View",
    "Withholding",
    "WriteMsg",
    "build_group",
    "build_proxy",
    "replica_address",
]
