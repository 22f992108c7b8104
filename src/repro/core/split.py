"""Live shard split: migrate an item range between groups under traffic.

The protocol, run as a simulation process by :class:`ShardSplitter`:

1. **Reassign** the items in the shared :class:`~repro.shard.map.ShardMap`
   (one epoch bump). Every proxy's resolve-once router cache invalidates
   on its next lookup, so new ingress routes to the target group while
   the state still lives on the source — the target's Master simply
   mirrors unknown items lazily, exactly as it does at cold start.
2. **Drain**: wait :data:`DRAIN` seconds so operations that were already
   inside the source group's consensus pipeline commit there.
3. **Export**: submit an ordered :class:`~repro.shard.messages.ShardExport`
   to the source group. Every source replica detaches the identical
   bundle (values, write ownership, event history) at the identical
   point of its total order, and the f+1-voted reply *is* the bundle.
4. **Import**: submit the bundle as an ordered
   :class:`~repro.shard.messages.ShardImport` to the target group. Items
   that already received fresher post-reassignment updates keep their
   live value; everything else (writable flags, ownership, history)
   installs from the bundle.
5. Optionally **grow** the target group — provision a spare replica and
   join it through the signed reconfiguration protocol
   (:meth:`~repro.bftsmart.reconfiguration.Administrator.reconfigure_checked`),
   then wait for its partial state transfer to catch up. Splits shift
   load; the paper's 3f+1 floor forbids shrinking the source instead.

Each split returns a :class:`SplitReport` audit record.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bftsmart.client import ServiceProxy
from repro.bftsmart.cluster import build_proxy
from repro.bftsmart.reconfiguration import Administrator
from repro.core.recovery import SpareJoiner
from repro.shard.messages import ShardExport, ShardImport
from repro.wire import decode

#: Seconds between the map switch and the export, covering operations
#: already inside the source pipeline.
DRAIN = 0.05
#: Poll interval while awaiting invocations and state transfer.
GRID = 0.01
#: Limits of the optional grow phase: the signed join, then the spare's
#: catch-up through state transfer.
RECONFIG_TIMEOUT = 2.0
TRANSFER_DEADLINE = 8.0


@dataclass
class SplitReport:
    """Audit record of one shard split."""

    items: tuple
    target: int
    #: Source shards the items were exported from (usually one).
    sources: tuple = ()
    epoch: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    #: Item values / history events that travelled in export bundles.
    moved_items: int = 0
    moved_events: int = 0
    #: Target-group growth (optional phase 5).
    grew_target: bool = False
    join_view_id: int | None = None
    status: str = "completed"
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "items": list(self.items),
            "target": self.target,
            "sources": list(self.sources),
            "epoch": self.epoch,
            "started_at": round(self.started_at, 6),
            "finished_at": round(self.finished_at, 6),
            "moved_items": self.moved_items,
            "moved_events": self.moved_events,
            "grew_target": self.grew_target,
            "join_view_id": self.join_view_id,
            "status": self.status,
            "detail": self.detail,
        }


class ShardSplitter(SpareJoiner):
    """Coordinates live item migrations on a running
    :class:`~repro.core.system.SmartScadaSystem` with more than one shard."""

    def __init__(self, system) -> None:
        super().__init__(system, GRID)
        #: shard -> admin ServiceProxy into that group.
        self._clients: dict[int, ServiceProxy] = {}
        self._admins: dict[int, Administrator] = {}
        #: Every completed/failed :class:`SplitReport`, in order.
        self.reports: list = []

    # -- the protocol ----------------------------------------------------

    def split(self, item_ids, target: int, grow_target: bool = False):
        """Generator process migrating ``item_ids`` to group ``target``.

        Run it with ``sim.run_process(splitter.split(...))``; returns the
        :class:`SplitReport`.
        """
        system = self.system
        if not 0 <= target < system.shards:
            raise ValueError(f"no such shard: {target}")
        report = SplitReport(
            items=tuple(sorted(item_ids)),
            target=target,
            started_at=self.sim.now,
        )
        self.reports.append(report)
        tracer = self.sim.tracer
        trace_id = f"split:{len(self.reports)}"
        root = None
        if tracer is not None and tracer.enabled:
            root = tracer.begin(
                "shard.split",
                trace_id,
                process="shard-splitter",
                target=target,
                items=len(report.items),
            )

        def finish_trace() -> None:
            if root is not None:
                tracer.end(
                    root,
                    status=report.status,
                    moved_items=report.moved_items,
                    moved_events=report.moved_events,
                )

        # Phase 1 — group the items by current owner, then flip the map.
        by_source: dict[int, list] = {}
        for item_id in report.items:
            source = system.shard_map.shard_of(item_id)
            if source != target:
                by_source.setdefault(source, []).append(item_id)
        report.sources = tuple(sorted(by_source))
        system.shard_map.assign(report.items, target)
        report.epoch = system.shard_map.epoch
        if not by_source:
            report.finished_at = self.sim.now
            report.detail = "all items already on the target shard"
            finish_trace()
            return report

        # Phase 2 — drain the source pipelines.
        yield self.sim.timeout(DRAIN)

        # Phases 3+4 — export from each source, import into the target.
        for source in sorted(by_source):
            moved = tuple(by_source[source])
            export_span = None
            if root is not None:
                export_span = tracer.begin(
                    "shard.split.export",
                    trace_id,
                    parent=root,
                    process="shard-splitter",
                    source=source,
                    items=len(moved),
                )
            export = yield from self._await(
                self._client(source).invoke_ordered(
                    ShardExport(item_ids=moved, detach=True),
                    parent=export_span,
                )
            )
            if export_span is not None:
                tracer.end(export_span, ok=export is not None)
            if export is None:
                report.status = "export-failed"
                report.detail = f"shard {source} did not answer the export"
                report.finished_at = self.sim.now
                finish_trace()
                return report
            items, _ownership, events = decode(export)
            report.moved_items += len(items)
            report.moved_events += len(events)
            import_span = None
            if root is not None:
                import_span = tracer.begin(
                    "shard.split.import",
                    trace_id,
                    parent=root,
                    process="shard-splitter",
                    source=source,
                    target=target,
                    items=len(items),
                    events=len(events),
                )
            imported = yield from self._await(
                self._client(target).invoke_ordered(
                    ShardImport(payload=export),
                    parent=import_span,
                )
            )
            if import_span is not None:
                tracer.end(import_span, ok=imported is not None)
            if imported is None:
                report.status = "import-failed"
                report.detail = f"target shard {target} did not apply the import"
                report.finished_at = self.sim.now
                finish_trace()
                return report

        # Phase 5 — optionally grow the target group under the new load.
        if grow_target:
            yield from self._grow(report, target)

        report.finished_at = self.sim.now
        finish_trace()
        return report

    def _grow(self, report: SplitReport, target: int):
        spare, result, caught_up = yield from self._join_spare(
            self._admin(target),
            target,
            TRANSFER_DEADLINE,
            timeout=RECONFIG_TIMEOUT,
        )
        if not result.applied:
            report.status = f"join-{result.status}"
            report.detail = result.detail
            return
        report.grew_target = True
        report.join_view_id = result.view_id
        if not caught_up:
            report.status = "transfer-timed-out"
            report.detail = f"{spare.address} joined but did not catch up"

    # -- plumbing --------------------------------------------------------

    def _client(self, shard: int) -> ServiceProxy:
        client = self._clients.get(shard)
        if client is None:
            config = self.system.config
            client = build_proxy(
                self.sim,
                self.net,
                f"shard-admin-s{shard}",
                config.group_config(shard),
                self.system.keystore,
                invoke_timeout=config.base.invoke_timeout,
            )
            self._clients[shard] = client
        return client

    def _admin(self, shard: int) -> Administrator:
        admin = self._admins.get(shard)
        if admin is None:
            admin = Administrator(self._client(shard), self.system.keystore)
            self._admins[shard] = admin
        return admin
