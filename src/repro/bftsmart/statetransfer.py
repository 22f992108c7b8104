"""State transfer: how a lagging or recovering replica catches up.

A replica that observes consensus traffic for a slot beyond the one it is
waiting on asks its peers for state. Two transfer shapes exist:

**Full** — the original path. Each peer answers with its latest
checkpoint (service snapshot + client dedup table), the decided log
after the checkpoint, and its current view. The requester installs the
snapshot and replays the log through its normal execution path.

**Partial** — the durable-storage fast path. A replica that already
holds a verified prefix (recovered from its own disk, or simply a live
replica that fell behind) sets ``log_only`` on its request: peers whose
checkpoint has not yet swallowed ``from_cid`` answer with just the
decided-log suffix, no snapshot. Peers that *have* checkpointed past it
answer full — both kinds are grouped separately and either can win.

Either way the requester waits for ``f+1`` replies with identical
content — one of them is then guaranteed to come from a correct replica
— so a partial transfer is exactly as Byzantine-safe as a full one,
just smaller.
"""

from __future__ import annotations

import typing

from repro.bftsmart.messages import StateReply, StateRequest
from repro.crypto import digest
from repro.wire import encode

if typing.TYPE_CHECKING:
    from repro.bftsmart.replica import ServiceReplica


class StateTransfer:
    """Drives state transfer for one replica."""

    def __init__(self, replica: "ServiceReplica") -> None:
        self.replica = replica
        self.in_progress = False
        self._last_request_at = -float("inf")
        #: sender -> (match key, reply) of the request in flight.
        self._replies: dict[str, tuple] = {}
        self._highest_observed = -1
        self._retry_scheduled = False
        #: Set by :meth:`bootstrap`: this incarnation rebuilt its state and
        #: its executor may trail its decisions (see after_decision).
        self.recovering = False
        #: Completed transfers (metrics / tests).
        self.completed = 0
        # -- transfer-shape metrics (benchmarks / acceptance tests) --
        self.full_installs = 0
        #: Checkpoints a trailing executor skipped to (after_decision).
        self.execution_skips = 0
        #: Payload bytes this replica installed from peers (snapshot +
        #: log values), the "bytes shipped" axis of the fig. 8c contrast.
        self.bytes_installed = 0
        self.full_served = 0
        self.partial_served = 0

    @property
    def partial_installs(self) -> int:
        """Completed transfers that only appended a log suffix."""
        return self.completed - self.full_installs

    @property
    def retry_interval(self) -> float:
        """Minimum time between two state requests (seconds)."""
        return self.replica.config.state_retry_interval

    # -- requesting ----------------------------------------------------------

    def _send_request(self, from_cid: int | None = None) -> None:
        replica = self.replica
        self.in_progress = True
        self._last_request_at = replica.sim.now
        self._replies.clear()
        request = StateRequest(
            from_cid=replica.next_cid if from_cid is None else from_cid,
            # Holding any decided prefix makes the log-tail fetch valid;
            # peers fall back to full replies when they can't serve it.
            log_only=replica.last_decided >= 0,
        )
        replica.channel.broadcast(replica.other_replicas(), request)
        # A request whose replies are lost (partition, crash) would
        # otherwise leave the transfer in progress forever — and an
        # in-progress transfer suppresses proposing and suspicion.
        self._schedule_retry()

    def notice_gap(self, observed_cid: int, force: bool = False) -> None:
        """Called when traffic for a future slot reveals we are behind.

        ``force`` (used by the retry path) also requests state when
        ``observed_cid == next_cid``: that instance may have decided at
        the peers while this replica was still installing the previous
        transfer, in which case no further traffic would ever re-trigger
        the gap detection.
        """
        replica = self.replica
        self._highest_observed = max(self._highest_observed, observed_cid)
        if observed_cid <= replica.next_cid and not (
            force and observed_cid == replica.next_cid
        ):
            return
        if replica.sim.now - self._last_request_at < self.retry_interval:
            self._schedule_retry()
            return
        self._send_request()

    def bootstrap(self) -> None:
        """Fetch state unconditionally (fresh or rejuvenated replica boot).

        A replacement replica that happens to be the current leader would
        otherwise stall the whole group for a request-timeout: it has
        nothing to propose from and only learns it is behind when peers'
        traffic reveals a gap. If the peers are no further along (initial
        deployment), the matching replies simply abort the transfer.
        """
        replica = self.replica
        self.recovering = True
        self._highest_observed = max(self._highest_observed, replica.next_cid)
        self._send_request()

    def after_decision(self, cid: int) -> None:
        """Let a recovering executor skip to the checkpoint peers just took.

        A new incarnation votes as soon as its transfer lands, but its
        executor still replays the WAL and the transferred log at the
        live execution cost, so its state can trail the group's for
        seconds. Peers checkpoint every ``checkpoint_interval`` slots
        once they execute the slot; one decision later this replica asks
        for that checkpoint (``from_cid`` at it: peers that took it
        answer full) and :meth:`_install` skips the backlog below it.
        Once the executor keeps up with the decisions, nothing is asked.
        """
        replica = self.replica
        config = replica.config
        if cid % config.checkpoint_interval:
            return
        checkpoint = cid - 1
        if replica.executed_cid + config.pipeline_depth >= checkpoint:
            self.recovering = False  # the executor keeps up
        elif not self.in_progress:
            self._send_request(from_cid=checkpoint)

    # -- serving -------------------------------------------------------------

    def on_request(self, message: StateRequest, sender: str) -> None:
        replica = self.replica
        if message.log_only and replica.checkpoint_cid < message.from_cid:
            # Our decided log still covers the requested suffix: serve it
            # without the snapshot. (The log is contiguous from
            # checkpoint_cid + 1, so checkpoint_cid < from_cid guarantees
            # every entry >= from_cid is present.)
            reply = StateReply(
                checkpoint_cid=message.from_cid - 1,
                snapshot=b"",
                log=tuple(
                    entry
                    for entry in replica.decision_log
                    if entry[0] >= message.from_cid
                ),
                view=replica.view,
                partial=True,
                regency=replica.synchronizer.synced_regency,
            )
            self.partial_served += 1
        else:
            reply = StateReply(
                checkpoint_cid=replica.checkpoint_cid,
                snapshot=replica.checkpoint_snapshot,
                log=tuple(replica.decision_log),
                view=replica.view,
                regency=replica.synchronizer.synced_regency,
            )
            self.full_served += 1
        replica.channel.send(sender, reply)

    # -- receiving -------------------------------------------------------------

    def on_reply(self, message: StateReply, sender: str) -> None:
        replica = self.replica
        if not self.in_progress:
            return
        if not replica.view.contains(sender):
            return
        # A reply's match key is computed once, when it is stored: only
        # the new reply's group can have reached the quorum just now.
        key = digest(
            encode(
                (
                    message.checkpoint_cid,
                    message.snapshot,
                    message.log,
                    message.view.view_id,
                    message.partial,
                    message.regency,
                )
            )
        )
        self._replies[sender] = (key, message)
        matching = [reply for k, reply in self._replies.values() if k == key]
        if len(matching) >= replica.view.weak_quorum:
            self._install(matching[0])

    # -- installing ---------------------------------------------------------------

    def _install(self, reply: StateReply) -> None:
        """Install ``f+1``-verified state: a full reply's checkpoint, then
        every logged decision past what this replica already holds.

        A partial reply's log extends the prefix this replica holds, so
        the executor backlog stays valid; a full reply replaces the state
        and everything in flight with its checkpoint first. Either way
        each entry reaches the executor through the replica's one path.
        """
        replica = self.replica
        top_cid = max(
            [reply.checkpoint_cid] + [entry[0] for entry in reply.log]
        )
        if top_cid <= replica.last_decided:
            # Peers agree but are no further along than we are; the gap
            # message was stale. Abort, drop the refuted observation and
            # wait for real progress.
            self.in_progress = False
            self._highest_observed = min(self._highest_observed, replica.last_decided)
            if not reply.partial and reply.checkpoint_cid > replica.executed_cid:
                # Our executor still trails their checkpoint: skip to it.
                replica.executor.skip_execution_to(reply.checkpoint_cid, reply.snapshot)
                self.execution_skips += 1
                self.bytes_installed += len(reply.snapshot)
            if replica.synchronizer.adopt_regency(reply.regency):
                replica.acceptor.after_install()
            else:
                # The transfer held back proposing: a leader resumes at
                # once rather than at its next client request.
                replica.proposer.maybe_propose()
            return
        if reply.partial and reply.checkpoint_cid > replica.last_decided:
            # The suffix starts beyond our prefix and cannot anchor —
            # only possible across a racing install; fetch again.
            self.in_progress = False
            self._schedule_retry()
            return

        if reply.view.view_id > replica.view.view_id:
            replica.view = reply.view
            replica.synchronizer.on_view_change()

        storage = replica.storage
        if not reply.partial:
            replica.executor.install_checkpoint(reply.checkpoint_cid, reply.snapshot)
            # Open instances predate the installed state; their requests
            # go back to the pool.
            replica.acceptor.instances.clear()
            replica.pool.reset_unproposed()
            self.full_installs += 1
            if storage is not None:
                # The durable state must track the installed one, or the
                # next restart would resurrect the pre-install history.
                storage.reinstall(reply.checkpoint_cid, reply.snapshot, reply.log)
                storage = None  # the log tail went to disk with it

        self.bytes_installed += len(reply.snapshot)
        for cid, value, timestamp in sorted(reply.log, key=lambda e: e[0]):
            if cid <= replica.last_decided:
                continue  # overlap with what we already hold
            if storage is not None:
                storage.on_decided(cid, value, timestamp)
            replica.executor.enqueue_decided(cid, value, timestamp)
            self.bytes_installed += len(value)

        replica.last_progress = replica.sim.now
        self.in_progress = False
        self.completed += 1
        # Open instances the install swallowed (cid below the new head)
        # must not be delivered a second time; ones above it survive. A
        # decided instance sitting exactly at the new head was waiting
        # for the gap the install just filled — release it now.
        for cid in [c for c in replica.acceptor.instances if c < replica.next_cid]:
            del replica.acceptor.instances[cid]
        replica.next_propose_cid = max(replica.next_propose_cid, replica.next_cid)
        replica.synchronizer.adopt_regency(reply.regency)
        # Consensus traffic that arrived during the transfer was buffered;
        # joining the live protocol from it avoids another transfer round.
        replica.acceptor.after_install()
        if self._highest_observed >= replica.next_cid:
            # Decisions kept landing while we transferred (or the slot we
            # observed may have decided without us): ask for the rest at
            # once. Each such round installed progress, so this chain
            # ends; only a request that got no quorum waits out the retry
            # interval.
            self._send_request()

    def _schedule_retry(self) -> None:
        if self._retry_scheduled:
            return
        self._retry_scheduled = True
        self.replica.sim.defer(self.retry_interval, self._retry)

    def _retry(self) -> None:
        self._retry_scheduled = False
        if self.in_progress or self._highest_observed >= self.replica.next_cid:
            self.notice_gap(
                max(self._highest_observed, self.replica.next_cid), force=True
            )
