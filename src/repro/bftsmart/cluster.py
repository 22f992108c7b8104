"""Convenience builders for replica groups and proxies.

Used by tests, examples and the SMaRt-SCADA system builder to assemble a
group without repeating the wiring boilerplate.
"""

from __future__ import annotations

from repro.bftsmart.client import ServiceProxy
from repro.bftsmart.config import GroupConfig
from repro.bftsmart.replica import ServiceReplica
from repro.bftsmart.view import View
from repro.crypto import KeyStore
from repro.net.network import Network
from repro.sim.kernel import Simulator


def build_group(
    sim: Simulator,
    net: Network,
    config: GroupConfig,
    service_factory,
    keystore: KeyStore | None = None,
    storages: dict | None = None,
) -> list:
    """Create the ``config.n`` replicas of a group.

    ``service_factory()`` is called once per replica (each replica owns an
    independent service instance — that independence is what replication
    protects); every replica starts honest — a fault drill sets
    ``replicas[i].behaviour`` (:mod:`repro.bftsmart.byzantine`).
    ``storages`` maps indices to :class:`repro.storage.ReplicaStorage`
    instances; replicas given one boot through ``recover_from_disk`` (a
    no-op on an empty disk) and persist decisions/checkpoints to it.
    """
    keystore = keystore if keystore is not None else KeyStore()
    storages = storages or {}
    replicas = []
    for index, address in enumerate(config.addresses):
        replica = ServiceReplica(
            sim=sim,
            net=net,
            address=address,
            config=config,
            service=service_factory(),
            keystore=keystore,
            storage=storages.get(index),
        )
        if replica.storage is not None:
            replica.recover_from_disk()
        replicas.append(replica)
    return replicas


def build_proxy(
    sim: Simulator,
    net: Network,
    client_id: str,
    config: GroupConfig,
    keystore: KeyStore | None = None,
    invoke_timeout: float = 1.0,
) -> ServiceProxy:
    """Create a client proxy for the group described by ``config``."""
    keystore = keystore if keystore is not None else KeyStore()
    view = View(0, config.addresses, config.f)
    return ServiceProxy(
        sim=sim,
        net=net,
        client_id=client_id,
        keystore=keystore,
        view=view,
        invoke_timeout=invoke_timeout,
    )
