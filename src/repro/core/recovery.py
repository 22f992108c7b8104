"""Proactive recovery (rejuvenation) of SCADA Master replicas.

The intrusion-tolerance literature the paper builds on (Castro & Liskov's
proactive recovery; Veríssimo et al.'s intrusion-tolerant architectures,
the paper's [8] and [14]) periodically restarts replicas from a clean
image so that an adversary must compromise more than ``f`` replicas
*within one rejuvenation window* rather than over the system's lifetime.

This module implements that operational pattern on top of the
reproduction's machinery: rejuvenating a replica tears its ProxyMaster
down and boots a pristine replacement at the same address, which then
state-transfers the whole Master state back in from its peers. A
:class:`RejuvenationScheduler` cycles through the group one replica at a
time (never exceeding the ``f`` simultaneous "faults" the group
tolerates).

It is also where every replica that appears *after* deploy time is
built: :func:`provision_replica` is the one construction path behind
rejuvenation, restart-from-disk and the spares that
:class:`SpareJoiner` joins for the heal orchestrator and the shard
splitter.
"""

from __future__ import annotations

import typing

from repro.bftsmart.view import View
from repro.core.config import shard_replica_address
from repro.core.proxy_master import ProxyMaster
from repro.sim.process import Interrupted

if typing.TYPE_CHECKING:
    from repro.core.system import SmartScadaSystem


def provision_replica(
    system: "SmartScadaSystem",
    index: int,
    shard: int,
    address: str,
    view: View,
    handler_config=None,
) -> ProxyMaster:
    """Build one post-deploy ProxyMaster and slot it into the deployment.

    Every replica that appears after build time comes through here: a
    fresh incarnation at an existing ``index`` (rejuvenation, restart)
    replaces the old one, an ``index`` one past the end appends a spare.
    The machine's durable disk is reused when the deployment has one for
    ``index`` and created otherwise.

    Handler chains are configuration, not replicated state, and must be
    re-applied just as a restarted real replica re-reads its config
    files: the chains the deployment remembers from ``attach_handlers``
    first, then ``handler_config`` — an optional ``fn(proxy_master)`` for
    whatever else the caller configures — both before the caller
    recovers from disk, so an installed snapshot can restore handler
    state into them.
    """
    base = system.config.base
    storage = None
    if system.durable_storage is not None:
        storage = system.durable_storage.get(index)
        if storage is None:
            storage = system.durable_storage[index] = base.replica_storage(address)
    proxy_master = ProxyMaster(
        system.sim,
        system.net,
        index,
        base,
        system.keystore,
        group=system.config.group_config(shard),
        view=view,
        storage=storage,
        address=address,
        shard=shard,
    )
    for item_id, chain_factory in system.handler_factories.items():
        proxy_master.attach_handlers(item_id, chain_factory())
    if handler_config is not None:
        handler_config(proxy_master)
    if index == len(system.proxy_masters):
        system.proxy_masters.append(proxy_master)
    else:
        system.proxy_masters[index] = proxy_master
    return proxy_master


def rejuvenate_replica(
    system: "SmartScadaSystem",
    index: int,
    handler_config=None,
) -> ProxyMaster:
    """Replace one Master replica with a pristine instance.

    The old instance is halted and detached; the new one starts from an
    empty state (fresh service, fresh Master core) and catches up through
    the ordinary state-transfer protocol (``handler_config``: see
    :func:`provision_replica`).

    The replacement is honest (``replica.behaviour is None``). The chaos
    engine models a runtime *compromise* on top of this: it sets the
    replacement's ``replica.behaviour`` before any event runs, so the
    machinery that rejuvenates a replica to a clean image swaps it for a
    :mod:`repro.bftsmart.byzantine` behaviour instead (and back).

    Returns the new ProxyMaster (also swapped into
    ``system.proxy_masters``).
    """
    old = system.proxy_masters[index]
    old.replica.halt()
    durable = system.durable_storage is not None
    if durable:
        # Rejuvenation reprovisions the machine: the disk is wiped along
        # with everything else (a compromised replica's disk contents are
        # exactly what proactive recovery must not trust).
        system.durable_storage[index].crash("wiped")
    replacement = provision_replica(
        system,
        index,
        old.shard,
        old.address,
        old.replica.view,
        handler_config=handler_config,
    )
    if durable:
        replacement.replica.recover_from_disk()  # wiped: a recorded no-op
    # Fetch state immediately: if this address is the current leader, the
    # group would otherwise stall for a whole request-timeout before the
    # synchronization phase deposed the amnesiac newcomer.
    replacement.replica.state_transfer.bootstrap()
    return replacement


def restart_replica(
    system: "SmartScadaSystem",
    index: int,
    disk_fault: str | None = "intact",
    handler_config=None,
) -> ProxyMaster:
    """Crash one Master replica and reboot it from its durable disk.

    Unlike :func:`rejuvenate_replica`, the replacement keeps the old
    incarnation's :class:`repro.storage.ReplicaStorage`: the crash fault
    model (``disk_fault`` — ``intact``/``torn``/``corrupt``/``wiped``)
    is applied to the disk, then the new incarnation boots through
    ``recover_from_disk`` — newest valid checkpoint + WAL-tail replay —
    and only asks peers for the suffix it missed (a *partial* state
    transfer). Damaged disks are detected by digest verification and
    fall back to the full transfer automatically.

    ``disk_fault=None`` means the crash fault was already applied to the
    device (the chaos engine applies it at crash time, which may be long
    before the reboot).

    Requires a deployment built with ``config.durability``.
    """
    if system.durable_storage is None:
        raise ValueError(
            "restart_replica needs a durable deployment "
            "(SmartScadaConfig(durability=True)); use rejuvenate_replica "
            "for memory-only groups"
        )
    old = system.proxy_masters[index]
    old.replica.halt()
    if disk_fault is not None:
        system.durable_storage[index].crash(disk_fault)
    replacement = provision_replica(
        system,
        index,
        old.shard,
        old.address,
        old.replica.view,
        handler_config=handler_config,
    )
    replacement.replica.recover_from_disk()
    replacement.replica.state_transfer.bootstrap()
    return replacement


class SpareJoiner:
    """Generator helpers for flows that grow a replica group by a spare.

    The heal orchestrator's evict-and-replace and the shard splitter's
    grow-the-target are the same procedure — provision a spare, join it
    through the signed reconfiguration protocol, propagate the view,
    bootstrap its state transfer, wait for it to reach the frontier —
    run from inside the subclass's own simulation process. The subclass
    picks the poll ``grid``, so every wait ticks on its caller's clock.
    """

    def __init__(self, system: "SmartScadaSystem", grid: float, handler_config=None):
        self.sim = system.sim
        self.net = system.net
        self.system = system
        self.grid = grid
        self.handler_config = handler_config

    def _join_spare(self, admin, shard: int, transfer_deadline: float, **reconfig):
        """Grow group ``shard`` by one fresh replica through ``admin``.

        Returns ``(spare, result, caught_up)``: the new ProxyMaster, the
        join's :class:`~repro.bftsmart.reconfiguration.ReconfigResult`
        (``reconfig`` are ``reconfigure_checked`` keywords) and whether
        the spare reached the decision frontier within the deadline. A
        join that is not ``applied`` leaves the spare listening but
        outside every view.
        """
        spare = self._provision_spare(shard, admin.proxy.view)
        result = yield from self._await(
            admin.reconfigure_checked(join=(spare.address,), **reconfig)
        )
        if not result.applied:
            return spare, result, False
        self.system.update_views(result.view, shard=shard)
        spare.replica.state_transfer.bootstrap()
        caught_up = yield from self._wait_caught_up(spare, transfer_deadline)
        return spare, result, caught_up

    def _provision_spare(self, shard: int, view: View) -> ProxyMaster:
        """Boot a fresh replica at group ``shard``'s next spare address.

        The spare anticipates the post-join view (the admin is the only
        view-changing principal, so the id is exact) and starts
        listening before the reconfiguration decides — the moment the
        members install the new view, the joiner is already there.
        """
        system = self.system
        # Retired members keep their address: count every replica the
        # group ever had, not its current membership.
        local = sum(1 for pm in system.proxy_masters if pm.shard == shard)
        address = shard_replica_address(shard, local, system.shards)
        anticipated = View(view.view_id + 1, view.addresses + (address,), view.f)
        return provision_replica(
            system,
            len(system.proxy_masters),
            shard,
            address,
            anticipated,
            handler_config=self.handler_config,
        )

    def _await(self, event):
        """Wait for ``event`` inside a flow generator; ``None`` on failure."""
        box: list = []
        event.add_callback(lambda ev: box.append(ev))
        while not box:
            yield self.sim.timeout(self.grid)
        ev = box[0]
        if not ev.ok:
            ev.defused = True
            return None
        return ev.value

    def _wait_caught_up(self, pm: ProxyMaster, deadline: float):
        """Poll until ``pm`` finished its transfer and reached the frontier."""
        sim = self.sim
        limit = sim.now + deadline
        while sim.now < limit:
            peers = [
                other.replica.last_decided
                for other in self.system.group(pm.shard)
                if other is not pm and other.replica.active
            ]
            if (
                peers
                and not pm.replica.state_transfer.in_progress
                and pm.replica.last_decided >= max(peers) - 1
            ):
                return True
            yield sim.timeout(self.grid)
        return False


class RejuvenationScheduler:
    """Cycles proactive recovery through the replica group.

    Parameters
    ----------
    system:
        The running deployment.
    period:
        Seconds between consecutive rejuvenations (one replica each).
    handler_config:
        ``fn(proxy_master)`` re-applying handler chains to a fresh
        replica (see :func:`rejuvenate_replica`).
    settle_time:
        How long after a rejuvenation the scheduler verifies the replica
        caught up before moving on (diagnostics only).
    guard:
        Optional zero-arg callable returning a veto reason (string) or
        ``None``. A recovery orchestrator plugs in here so a scheduled
        rejuvenation never overlaps one of its own healing actions.

    A scheduled rejuvenation is *skipped* (logged in :attr:`skip_log`,
    retried next period) whenever another replica is already down,
    unreachable, or mid-state-transfer: rejuvenation deliberately takes
    one replica out, and doing so while the group is already degraded
    would erode the live quorum below 2f+1.
    """

    def __init__(
        self,
        system: "SmartScadaSystem",
        period: float,
        handler_config=None,
        settle_time: float = 2.0,
        guard=None,
    ) -> None:
        if period <= 0:
            raise ValueError("rejuvenation period must be positive")
        self.system = system
        self.period = period
        self.handler_config = handler_config
        self.settle_time = settle_time
        self.guard = guard
        self.rejuvenations = 0
        self.recovered_in_time = 0
        self.skipped = 0
        #: One ``{"time", "target", "reason"}`` dict per skipped slot.
        self.skip_log: list = []
        self._process = None

    def erosion_reason(self, target: int) -> str | None:
        """Why rejuvenating ``target`` now would erode the quorum."""
        net = self.system.net
        victim = self.system.proxy_masters[target]
        # Only the target's own group loses quorum headroom; a degraded
        # replica in a *different* shard — or one the group already voted
        # out — is no reason to postpone this group's rejuvenation slot.
        for pm in self.system.group(victim.shard):
            if pm is victim:
                continue
            if not pm.replica.active:
                return f"{pm.address} is down"
            if net.endpoint(pm.address).down:
                return f"{pm.address} machine is unreachable"
            if pm.replica.state_transfer.in_progress:
                return f"{pm.address} has a state transfer in flight"
        if self.guard is not None:
            return self.guard()
        return None

    def start(self) -> None:
        if self._process is not None:
            raise RuntimeError("scheduler already started")
        self._process = self.system.sim.process(
            self._run(), name="rejuvenation-scheduler"
        )

    def stop(self) -> None:
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("stop")

    def _run(self):
        sim = self.system.sim
        index = 0
        try:
            while True:
                yield sim.timeout(self.period)
                members = [
                    pm.index
                    for pm in self.system.proxy_masters
                    if pm.address not in self.system.retired
                ]
                target = members[index % len(members)]
                reason = self.erosion_reason(target)
                if reason is not None:
                    self.skipped += 1
                    self.skip_log.append(
                        {"time": sim.now, "target": target, "reason": reason}
                    )
                    continue
                index += 1
                replacement = rejuvenate_replica(
                    self.system, target, handler_config=self.handler_config
                )
                self.rejuvenations += 1
                yield sim.timeout(self.settle_time)
                peers = [
                    pm.replica
                    for pm in self.system.group(replacement.shard)
                    if pm is not replacement and pm.replica.active
                ]
                if peers and replacement.replica.last_decided >= min(
                    p.last_decided for p in peers
                ) - 1:
                    self.recovered_in_time += 1
        except Interrupted:
            return
