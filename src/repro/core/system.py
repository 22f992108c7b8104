"""Whole-deployment builders for both systems under study.

:func:`build_neoscada` assembles the original three-machine deployment
(Frontend, SCADA Master, HMI); :func:`build_sharded_scada` assembles the
replicated one (Frontend + proxy, n ProxyMasters per group, HMI + proxy)
exactly as §V describes, once per shard behind one item namespace —
:func:`build_smartscada` is its one-group form, the paper's six
machines. Both return a handle object exposing the components, so tests,
examples and benchmarks configure items/handlers and drive traffic
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import (
    DEFAULT_HOP_LATENCY,
    DEFAULT_LOCAL_LATENCY,
    ShardedScadaConfig,
    SmartScadaConfig,
    jitter_bound,
    neoscada_costs,
)
from repro.core.proxy_frontend import ProxyFrontend
from repro.core.proxy_hmi import ProxyHMI
from repro.core.proxy_master import ProxyMaster
from repro.crypto import KeyStore, digest
from repro.neoscada.frontend import Frontend
from repro.neoscada.hmi import HMI
from repro.neoscada.master import MasterCosts, ScadaMaster
from repro.net.latency import LanLatency
from repro.net.network import Network
from repro.net.trace import NetworkTrace
from repro.shard.map import ShardMap
from repro.sim.kernel import Simulator


def make_network(
    sim: Simulator,
    hop_latency: float = DEFAULT_HOP_LATENCY,
    trace: bool = False,
) -> Network:
    """A switched-LAN network like the paper's Gigabit testbed."""
    return Network(
        sim,
        latency=LanLatency(
            base=hop_latency,
            jitter=jitter_bound(hop_latency),
            rng=sim.rng.stream("net.jitter"),
        ),
        trace=NetworkTrace(enabled=trace),
    )


@dataclass
class NeoScadaSystem:
    """Handle to an assembled (unreplicated) NeoSCADA deployment."""

    sim: Simulator
    net: Network
    frontends: list
    master: ScadaMaster
    hmi: HMI

    @property
    def frontend(self) -> Frontend:
        return self.frontends[0]

    def start(self) -> None:
        for frontend in self.frontends:
            frontend.start()
        self.master.start()
        self.hmi.start()
        # Let subscriptions and browses settle.
        self.sim.run(until=self.sim.now + 0.05)

    def attach_handlers(self, item_id: str, chain_factory) -> None:
        self.master.attach_handlers(item_id, chain_factory())


def build_neoscada(
    sim: Simulator,
    net: Network | None = None,
    frontend_count: int = 1,
    costs: MasterCosts | None = None,
    workers: int = 4,
    jitter: float = 0.2,
    write_timeout: float | None = 5.0,
    audit_writes: bool = False,
) -> NeoScadaSystem:
    """Assemble the paper's three-machine NeoSCADA deployment."""
    net = net if net is not None else make_network(sim)
    frontends = [
        Frontend(sim, net, f"frontend-{i}") for i in range(frontend_count)
    ]
    master = ScadaMaster(
        sim,
        net,
        "scada-master",
        frontends=[fe.address for fe in frontends],
        costs=costs if costs is not None else neoscada_costs(),
        workers=workers,
        jitter=jitter,
        write_timeout=write_timeout,
        audit_writes=audit_writes,
    )
    hmi = HMI(sim, net, "hmi", master_address="scada-master")
    return NeoScadaSystem(sim=sim, net=net, frontends=frontends, master=master, hmi=hmi)


@dataclass
class SmartScadaSystem:
    """Handle to an assembled SMaRt-SCADA deployment.

    Sharding is a topology parameter of the one deployment shape: the
    classic system is the 1-shard fleet. ``config`` is always a
    :class:`~repro.core.config.ShardedScadaConfig`; the per-group
    tunables live on ``config.base``.
    """

    sim: Simulator
    net: Network
    config: ShardedScadaConfig
    keystore: KeyStore
    shard_map: ShardMap
    frontends: list
    proxy_frontends: list
    #: Flat and positional (``proxy_masters[i].index == i``): replicas of
    #: shard ``k`` occupy ``[k*n, (k+1)*n)``, spares joined later are
    #: appended, and a retired replica keeps its slot — chaos actions and
    #: benchmarks address machines by position. :meth:`group` is the
    #: membership view.
    proxy_masters: list
    proxy_hmi: ProxyHMI
    hmi: HMI
    #: global index -> :class:`repro.storage.ReplicaStorage` when the
    #: deployment was built with ``config.base.durability``; ``None``
    #: otherwise. Disks outlive replica incarnations — a restart boots
    #: from the same one.
    durable_storage: dict | None = None
    #: item id -> chain factory, so replicas provisioned *after* deploy
    #: time (rejuvenated, restarted, spares) get the same configuration.
    handler_factories: dict = field(default_factory=dict)
    #: Addresses the groups voted out of their membership (heal
    #: eviction) — the deployment's one record of retirement. Addresses
    #: are never reused, so the record survives whatever incarnation
    #: sits in the slot: fault reverts must not resurrect these machines.
    retired: set = field(default_factory=set)

    @property
    def frontend(self) -> Frontend:
        return self.frontends[0]

    @property
    def shards(self) -> int:
        return self.config.shards

    @property
    def masters(self) -> list:
        return [pm.master for pm in self.proxy_masters]

    @property
    def replicas(self) -> list:
        return [pm.replica for pm in self.proxy_masters]

    def group(self, shard: int) -> list:
        """The *current* members of one group.

        Spares joined later are included; replicas the group voted out
        (:attr:`retired`) are not.
        """
        return [
            pm
            for pm in self.proxy_masters
            if pm.shard == shard and pm.address not in self.retired
        ]

    def shard_of(self, item_id: str) -> int:
        return self.shard_map.shard_of(item_id)

    def start(self) -> None:
        for frontend in self.frontends:
            frontend.start()
        for proxy_frontend in self.proxy_frontends:
            proxy_frontend.start()
        self.proxy_hmi.start()
        self.hmi.start()
        # Let subscriptions, browses and the first consensus settle.
        self.sim.run(until=self.sim.now + 0.2)

    def attach_handlers(self, item_id: str, chain_factory) -> None:
        """Attach an identical handler chain to every replica of every group.

        ``chain_factory()`` is called once per replica — handler
        instances hold state and must never be shared between replicas.
        Handler chains are configuration: installing them everywhere (not
        just on the owning group) keeps a later shard split from changing
        alarm behaviour — the target group is already configured.
        """
        self.handler_factories[item_id] = chain_factory
        for proxy_master in self.proxy_masters:
            proxy_master.attach_handlers(item_id, chain_factory())

    def state_digests(self, shard: int | None = None) -> list:
        """Per-replica state digests, whole deployment or one group.

        Digest equality is only meaningful *within* a group — different
        groups legitimately hold different state. Pass ``shard`` for the
        convergence-check form.
        """
        members = self.proxy_masters if shard is None else self.group(shard)
        return [
            digest(pm.service.snapshot())
            for pm in members
            if pm.replica.active
        ]

    def update_views(self, view, shard: int = 0) -> None:
        """Propagate one group's post-reconfiguration view to its clients.

        BFT-SMaRt clients learn new views from their view storage; this
        plays that role for the deployment's proxies and adapter clients.
        """
        self.proxy_hmi.bft_clients[shard].update_view(view)
        for proxy_frontend in self.proxy_frontends:
            proxy_frontend.bft_clients[shard].update_view(view)
        for proxy_master in self.proxy_masters:
            # Retired machines included: an adapter client still draining
            # votes must not keep retransmitting into a stale view.
            if proxy_master.shard == shard:
                proxy_master.vote_client.update_view(view)

    def flush_events(self) -> None:
        """Drain the HMI-side AE merge buffer (quiescence helper)."""
        self.proxy_hmi.flush_events()


def build_smartscada(
    sim: Simulator,
    net: Network | None = None,
    config: SmartScadaConfig | None = None,
    frontend_count: int = 1,
    keystore: KeyStore | None = None,
) -> SmartScadaSystem:
    """Assemble the paper's six-machine SMaRt-SCADA deployment: one group."""
    one_group = ShardedScadaConfig(
        shards=1, base=config if config is not None else SmartScadaConfig()
    )
    return build_sharded_scada(sim, net, one_group, frontend_count, keystore)


def build_sharded_scada(
    sim: Simulator,
    net: Network | None = None,
    config: ShardedScadaConfig | None = None,
    frontend_count: int = 1,
    keystore: KeyStore | None = None,
) -> SmartScadaSystem:
    """Assemble ``config.shards`` BFT groups behind one item namespace.

    Frontends (+proxies), ``config.base.n`` ProxyMasters per group, one
    HMI (+proxy) exactly as §V describes; each component shares a machine
    with its proxy, modelled as loopback-speed links between the pairs.
    Every group has its own leader, consensus pipeline, WAL and view; the
    proxies hold one BFT client per group. At one shard this is the
    paper's six-machine deployment, classic wire addresses included.
    Every replica starts honest; a Byzantine drill sets
    ``system.replicas[i].behaviour`` (*global* replica index).
    """
    net = net if net is not None else make_network(sim)
    config = config if config is not None else ShardedScadaConfig()
    keystore = keystore if keystore is not None else KeyStore()
    groups = config.group_configs()
    shard_map = config.shard_map()

    frontends = []
    proxy_frontends = []
    for i in range(frontend_count):
        frontend = Frontend(sim, net, f"frontend-{i}")
        proxy = ProxyFrontend(
            sim,
            net,
            f"proxy-frontend-{i}",
            frontend_address=frontend.address,
            groups=groups,
            shard_map=shard_map,
            keystore=keystore,
            invoke_timeout=config.base.invoke_timeout,
        )
        net.set_local_pair(frontend.address, proxy.address, DEFAULT_LOCAL_LATENCY)
        frontends.append(frontend)
        proxy_frontends.append(proxy)

    durable_storage = None
    if config.base.durability:
        durable_storage = {}
        for shard, group in enumerate(groups):
            for local, address in enumerate(group.addresses):
                durable_storage[config.global_index(shard, local)] = (
                    config.base.replica_storage(address)
                )
        storages = dict(durable_storage)
        sim.register_stats_source(
            "storage",
            lambda: {s.address: s.counters() for s in storages.values()},
        )

    proxy_masters = []
    for shard, group in enumerate(groups):
        for local, address in enumerate(group.addresses):
            global_index = config.global_index(shard, local)
            proxy_masters.append(
                ProxyMaster(
                    sim,
                    net,
                    global_index,
                    config.base,
                    keystore,
                    group=group,
                    storage=(
                        durable_storage[global_index] if durable_storage else None
                    ),
                    address=address,
                    shard=shard,
                )
            )

    proxy_hmi = ProxyHMI(
        sim,
        net,
        "proxy-hmi",
        groups=groups,
        shard_map=shard_map,
        keystore=keystore,
        invoke_timeout=config.base.invoke_timeout,
    )
    hmi = HMI(sim, net, "hmi", master_address="proxy-hmi")
    net.set_local_pair("hmi", "proxy-hmi", DEFAULT_LOCAL_LATENCY)

    # Shard-tier stats surface for the fleet scoreboard: every router
    # cache in the deployment plus the global AE merger.
    routers = [proxy_hmi.router] + [proxy.router for proxy in proxy_frontends]
    merger = proxy_hmi.merger

    def _router_stats() -> dict:
        totals = {"hits": 0, "misses": 0, "invalidations": 0}
        for router in routers:
            for key in totals:
                totals[key] += router.stats[key]
        totals["epoch"] = shard_map.epoch
        return totals

    def _merger_stats() -> dict:
        stats = dict(merger.stats)
        stats["pending"] = merger.pending
        return stats

    sim.register_stats_source("shard.router", _router_stats)
    sim.register_stats_source("shard.merge", _merger_stats)

    return SmartScadaSystem(
        sim=sim,
        net=net,
        config=config,
        keystore=keystore,
        shard_map=shard_map,
        frontends=frontends,
        proxy_frontends=proxy_frontends,
        proxy_masters=proxy_masters,
        proxy_hmi=proxy_hmi,
        hmi=hmi,
        durable_storage=durable_storage,
    )
