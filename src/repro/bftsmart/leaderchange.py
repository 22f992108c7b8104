"""The synchronization phase: Mod-SMaRt's leader change.

When a replica suspects the leader — a batch that fails validation, a
request left unproposed past the follower's patience after it was
forwarded (see ``Pool._watch_silence``), or a request
undecided past the request timeout — it votes STOP for the next regency.
``f+1`` STOPs make other replicas join (a correct replica is suspicious,
so everyone should be); ``2f+1`` STOPs install the new regency. Every
replica then sends a signed STOP-DATA to the new leader describing its
last decision and every in-flight proposal it echoed (with consensus
pipelining there can be up to ``pipeline_depth`` of them); the leader
collects ``n-f`` of them,
resolves per slot what value (if any) must be recovered for the open
consensus window, and broadcasts SYNC carrying the whole recovered
window. On SYNC, replicas re-propose the recovered slots in cid order
and resume normal operation under the new leader.

Simplification vs. BFT-SMaRt (documented in DESIGN.md §4): a slot's
recovered value is the in-flight proposal reported by at least ``f+1``
replicas (sufficient for any possibly-decided value to be re-proposed,
since a decision leaves ``f+1`` correct witnesses among any ``n-f``
STOP-DATAs); proofs are signatures over the whole STOP-DATA rather than
per-message write certificates. Slots inside the window with no
recoverable value are re-proposed as the empty batch so the decided
sequence stays gap-free.
"""

from __future__ import annotations

import typing

from repro.bftsmart.consensus import Proposal
from repro.bftsmart.messages import Stop, StopData, Sync
from repro.crypto import Signature, digest
from repro.wire import encode

if typing.TYPE_CHECKING:
    from repro.bftsmart.replica import ServiceReplica


def _stop_data_payload(sender: str, regency: int, last_decided: int, in_flight) -> bytes:
    return encode((sender, regency, last_decided, in_flight))


class Synchronizer:
    """Runs the synchronization phase for one replica."""

    def __init__(self, replica: "ServiceReplica") -> None:
        self.replica = replica
        #: Currently installed regency (0 = initial leader).
        self.regency = 0
        #: True between installing a regency and receiving its SYNC.
        self.in_progress = False
        #: The latest regency whose SYNC this replica processed (or
        #: adopted): what its state replies vouch for.
        self.synced_regency = 0
        self._stop_votes: dict[int, set] = {}
        self._stop_datas: dict[int, dict] = {}
        self._highest_vote = 0
        self._resolved: set = set()
        #: Counts leader changes completed (metrics / tests).
        self.changes_completed = 0
        #: When the latest SYNC resumed ordering (the leader drains its
        #: backlog eagerly for one ``request_timeout`` after it).
        self.synced_at = -float("inf")
        #: Open ``sync.leader_change`` span, when a tracer is installed.
        self._obs_span = None

    # -- suspicion -------------------------------------------------------------

    @property
    def vote_outstanding(self) -> bool:
        """Has this replica voted STOP for a regency not yet installed?"""
        return self._highest_vote > self.regency

    def suspect(self, cause: str) -> None:
        """Vote to replace the current leader (idempotent per regency).

        ``cause`` says why, on the ``sync.suspect`` trace point:
        ``invalid`` (the leader proposed a batch that failed validation),
        ``stalled`` (a proposed request stayed undecided past
        ``request_timeout``) or ``silent`` (the leader proposed nothing
        past the follower's patience or, at that backstop, past
        ``request_timeout``, or never sent a new regency's SYNC). An f+1
        join is ``joined``.

        Called repeatedly by the watchdog while requests stay stale. If we
        already voted for a regency that has not installed, the vote is
        re-broadcast: STOP messages can be lost (partitions, crashes
        during the split), and receivers deduplicate by sender anyway.
        """
        target = self.regency + 1
        if target <= self._highest_vote:
            if self.vote_outstanding:
                replica = self.replica
                stop = Stop(regency=self._highest_vote)
                replica.channel.broadcast(replica.other_replicas(), stop)
            return
        self._vote_stop(target, cause)

    def _vote_stop(self, target: int, cause: str) -> None:
        if target <= self._highest_vote or target <= self.regency:
            return
        self._highest_vote = target
        replica = self.replica
        tracer = replica.sim.tracer
        if tracer is not None and tracer.enabled:
            # A bump-in-the-wire observer sees each first STOP vote and
            # why it was cast; the intrusion detector counts distinct
            # first-hand ``invalid`` suspecters per leader (the
            # equivocation signature).
            tracer.point(
                "sync.suspect",
                f"regency:{target}@{replica.address}",
                process=replica.address,
                regency=target,
                leader=replica.leader,
                cause=cause,
            )
        stop = Stop(regency=target)
        replica.channel.broadcast(replica.other_replicas(), stop)
        self._record_stop(replica.address, target)

    def on_stop(self, message: Stop, sender: str) -> None:
        if message.regency <= self.regency:
            return
        if not self.replica.view.contains(sender):
            return
        self._record_stop(sender, message.regency)

    def _record_stop(self, sender: str, target: int) -> None:
        votes = self._stop_votes.setdefault(target, set())
        votes.add(sender)
        view = self.replica.view
        if len(votes) >= view.weak_quorum:
            self._vote_stop(target, "joined")
        if len(votes) >= view.strong_quorum and target > self.regency:
            self._install(target)

    # -- installing a regency -----------------------------------------------------

    def _install(self, target: int) -> None:
        replica = self.replica
        self.regency = target
        self.in_progress = True
        tracer = replica.sim.tracer
        if tracer is not None and tracer.enabled:
            if self._obs_span is not None:
                tracer.end(self._obs_span, aborted=True)
            self._obs_span = tracer.begin(
                "sync.leader_change",
                f"regency:{target}@{replica.address}",
                process=replica.address,
                regency=target,
                new_leader=replica.view.leader_for(target),
            )
        # Requests in flight under the old leader go back to the pool.
        replica.pool.reset_unproposed()
        # Proposing resumes from wherever SYNC re-anchors the window.
        replica.next_propose_cid = replica.next_cid
        # Announce our vote once more: it may have been cast while a
        # partition or a crash swallowed it, and a member still short of
        # 2f+1 STOPs could otherwise never install this regency with us.
        replica.channel.broadcast(replica.other_replicas(), Stop(regency=target))

        # Report every open slot of the pipeline window: undecided
        # instances we WRITE-voted, plus decided-but-unreleased ones (a
        # decision this replica holds may be exactly the value the new
        # leader must re-propose for the peers that missed it).
        entries = []
        for cid in sorted(replica.acceptor.instances):
            if cid < replica.next_cid:
                continue
            instance = replica.acceptor.instances[cid]
            if instance.decided and instance.decided_value is not None:
                entries.append(
                    (cid, instance.epoch, instance.decided_value,
                     instance.decided_timestamp)
                )
            elif instance.write_sent and instance.proposal_value is not None:
                entries.append(
                    (cid, instance.epoch, instance.proposal_value,
                     instance.proposal_timestamp)
                )
        in_flight = tuple(entries)
        payload = _stop_data_payload(
            replica.address, target, replica.last_decided, in_flight
        )
        stop_data = StopData(
            regency=target,
            last_decided=replica.last_decided,
            in_flight=in_flight,
            signature=replica.signer.sign(payload).tag,
        )
        new_leader = replica.view.leader_for(target)
        if new_leader == replica.address:
            self.on_stop_data(stop_data, replica.address)
        else:
            replica.channel.send(new_leader, stop_data)
        # Escalate if this synchronization stalls.
        replica.sim.defer(
            replica.config.sync_timeout, self._escalate_if_stalled, target
        )

    def _escalate_if_stalled(self, target: int) -> None:
        if self.in_progress and self.regency == target and self.replica.active:
            self._vote_stop(target + 1, "silent")

    # -- new leader: collecting STOP-DATA ---------------------------------------

    def on_stop_data(self, message: StopData, sender: str) -> None:
        """Collect a member's STOP-DATA as the regency's new leader.

        One for the regency right after ours is kept until we install it:
        its sender installed first and our STOP quorum may still be in
        flight (or the jitter overtook it).
        """
        replica = self.replica
        ahead = message.regency == self.regency + 1
        if not ahead and (message.regency != self.regency or not self.in_progress):
            return
        if replica.view.leader_for(message.regency) != replica.address:
            return
        if not replica.view.contains(sender):
            return
        payload = _stop_data_payload(
            sender, message.regency, message.last_decided, message.in_flight
        )
        signature = Signature(sender, message.signature)
        if not replica.verifier.verify(signature, payload):
            return
        collected = self._stop_datas.setdefault(message.regency, {})
        collected[sender] = message
        if (
            not ahead
            and len(collected) >= replica.view.live_quorum
            and message.regency not in self._resolved
        ):
            self._resolved.add(message.regency)
            self._resolve(message.regency, collected)

    def _resolve(self, regency: int, collected: dict) -> None:
        replica = self.replica
        max_decided = max(data.last_decided for data in collected.values())
        if replica.last_decided < max_decided:
            # The new leader itself is behind: catch up first, then the
            # stalled-sync escalation will elect the next regency if this
            # one cannot complete in time.
            replica.state_transfer.notice_gap(max_decided + 1)

        # Per-slot tally over the whole pipeline window. Slots at or
        # below max_decided are already settled somewhere — recovering
        # them is state transfer's job (above), never a re-proposal's.
        floor = max(replica.next_cid, max_decided + 1)
        per_cid: dict[int, dict] = {}  # cid -> digest -> [value, ts, votes]
        for data in collected.values():
            for inflight_cid, _epoch, value, timestamp in data.in_flight:
                if inflight_cid < floor:
                    continue
                counts = per_cid.setdefault(inflight_cid, {})
                record = counts.get(digest(value))
                if record is None:
                    counts[digest(value)] = [value, timestamp, 1]
                else:
                    record[2] += 1

        threshold = replica.view.weak_quorum  # witnesses per slot
        recovered: dict[int, tuple] = {}
        for cid, counts in per_cid.items():
            eligible = sorted(
                key for key, record in counts.items() if record[2] >= threshold
            )
            if eligible:
                value, timestamp, _votes = counts[eligible[0]]
                recovered[cid] = (value, timestamp)

        proposals = ()
        if recovered:
            # Holes below the highest recovered slot are filled with the
            # empty batch: every slot must decide or nothing above it
            # ever executes.
            now = replica.sim.now
            proposals = tuple(
                (cid,) + recovered.get(cid, (b"", now))
                for cid in range(floor, max(recovered) + 1)
            )

        sync = Sync(regency=regency, proposals=proposals)
        replica.channel.broadcast(replica.other_replicas(), sync)
        self.on_sync(sync, replica.address)

    # -- everyone: resuming on SYNC ------------------------------------------------

    def on_sync(self, message: Sync, sender: str) -> None:
        replica = self.replica
        if message.regency != self.regency or not self.in_progress:
            return
        if sender != replica.view.leader_for(message.regency):
            return
        self.in_progress = False
        self.synced_regency = message.regency
        self.changes_completed += 1
        if self._obs_span is not None:
            tracer = replica.sim.tracer
            if tracer is not None:
                tracer.end(self._obs_span, proposals=len(message.proposals))
            self._obs_span = None
        replica.last_progress = self.synced_at = replica.sim.now
        highest = replica.next_cid - 1
        for cid, value, timestamp in message.proposals:
            highest = max(highest, cid)
            if cid < replica.next_cid:
                continue  # already decided and released locally
            # The leader of the regency this SYNC installs re-proposes, by
            # value: the same path a resolved PROPOSE takes.
            replica.acceptor.on_proposal(
                Proposal(cid, message.regency, value, timestamp), sender
            )
        # Fresh proposals resume above the recovered window everywhere,
        # so a returning leader never reuses a recovered slot.
        replica.next_propose_cid = max(replica.next_cid, highest + 1)
        replica.proposer.maybe_propose()

    # -- recovering replicas: adopting the live regency ---------------------------

    def adopt_regency(self, regency: int) -> bool:
        """Join ``regency`` without a STOP round; ``True`` if it was ahead.

        Called by state transfer with the ``synced_regency`` that ``f+1``
        matching replies carried: one of them comes from a correct
        replica, which processed that regency's SYNC, so its value
        recovery is done and the replies' log holds its outcome. A
        replica that recovered at an older regency would otherwise drop
        every vote of the live one and could only follow the group by
        transfer. It never moves backwards, and since the regency is part
        of the replies' match key, one that only a minority claims never
        reaches this method. Nor does it adopt a regency it leads: a new
        incarnation cannot know what its previous one proposed there, so
        it waits for the next leader change like any replica that missed
        the STOPs.
        """
        replica = self.replica
        if regency <= self.regency:
            return False
        if replica.view.leader_for(regency) == replica.address:
            return False
        self.regency = self.synced_regency = regency
        self._highest_vote = max(self._highest_vote, regency)
        self.in_progress = False
        if self._obs_span is not None:
            tracer = replica.sim.tracer
            if tracer is not None:
                tracer.end(self._obs_span, aborted=True)
            self._obs_span = None
        # Requests in flight under the old leader go back to the pool,
        # and proposing restarts at the head the transfer installed.
        replica.pool.reset_unproposed()
        replica.next_propose_cid = replica.next_cid
        return True

    # -- hooks ------------------------------------------------------------------------

    def on_decision(self) -> None:
        """Called on every decision: progress resets suspicion."""
        self.replica.last_progress = self.replica.sim.now

    def on_view_change(self) -> None:
        """Reconfigurations keep the regency; leaders remap via the view."""
