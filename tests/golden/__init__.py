"""Outputs of the pre-optimisation code paths, frozen before they were deleted.

``outputs.json`` was recorded at the last commit that still carried the
ten ``repro.perf.PERF`` on/off switches, with every switch *off*. The
tests that used to run that second implementation compare against these
values instead; ``tests/test_golden_outputs.py`` says what each one is.

The ``deployment`` block was added later, recorded at the last commit
that still carried two deployment builders, handles and
spare-provisioning paths (``core/system.py`` beside
``shard/deployment.py``), from that commit's untouched ``src/``.

The ``schedules`` block was recorded the same way at the last commit that
still carried the heap event kernel beside the ring, on both kernels,
with their outputs asserted equal.

The ``transfer`` block was recorded from the untouched ``src/`` of the
last commit that still carried four hand-copied paths from a decided
entry to the executor (live delivery, disk recovery, full and partial
state-transfer install).

The ``behaviours`` block was recorded from the untouched ``src/`` of the
last commit whose Byzantine behaviours were ``ServiceReplica`` subclasses
overriding private methods, and stayed byte-identical when they became
``replica.behaviour`` values. Two rows were then re-recorded by the change
that routes all three reply sites (ordered, cached retransmission,
unordered) through the behaviour, because the liar used to send its
honest reply *and* the lie: ``ids_drills.lying`` (its fingerprint is now
an honest swap's — one reply per request, only corrupted) and
``bare_group.lying`` (1492 → 1452 events dispatched, so the schedule and
the decided interleaving moved). Every other row is the subclasses'.

The change that lets a restarted replica rejoin consensus under load
re-recorded, one edit at a time, exactly these entries (nothing else
moved at any step):

1. The ``redundancy-restored`` monitor joins the default set: the
   ``equivocating`` heal drill records a violation (its spare stays on
   regency 0) and so the ``equivocating`` IDS drill's fingerprint moves.
   Step 4 moves both again, so neither intermediate value was kept.
2. ``StateReply`` gains a ``regency`` field (the sender's last synced
   regency), served but not yet read: ``encodings["31-StateReply"]``;
   the larger replies shift delivery times, so the fingerprints of
   ``transfer`` campaigns ``crash-restart-{intact,corrupt,wiped}`` and
   ``pipelined-crash-restart`` (their per-replica counters stay the
   same), of ``deployment`` campaigns ``crash-restart-torn``,
   ``heal-evict-falsifying``, ``rejuvenation-under-fire`` and
   ``shard-leader-kills``, the ``transfer.leader_crash`` schedule
   (1134 → 1140 events) and the ``behaviours.bare_group.equivocating``
   schedule digest (same events, streams and values) moved.
3. The regency joins the f+1 match key, computed once per reply:
   nothing moved.
4. ``_install`` adopts the matched regency: ``shard-leader-kills``,
   ``transfer.leader_crash`` (1140 → 1098 events),
   ``behaviours.ids_drills.equivocating`` (fingerprint; same detections
   and score) and ``behaviours.heal_drills.equivocating`` (no violation
   any more; the spare votes in the live regency: ``ops_post`` 3.47 →
   3.86 writes/s, ``recovered`` 1.156 → 1.288).
5. Epoch-ahead consensus messages are held in the future buffer during
   a transfer and replayed: ``shard-leader-kills`` and
   ``transfer.leader_crash`` (1098 → 1059 events; the returning leader
   needs one full transfer instead of two, 668 → 334 bytes installed).
6. An install that still trails re-requests at once:
   ``rejuvenation-under-fire`` and ``transfer.leader_crash``
   (1059 → 1065 events).
7. A recovering executor skips to its peers' checkpoint: nothing moved.

The change that lets the SCADA leader propose on arrival re-recorded, one
edit at a time, exactly these entries. The bare-library rows
(``encodings``, ``counter_trace_sha256``, ``bft_micro``,
``schedules.bft``, ``behaviours.bare_group``, ``transfer.leader_crash``)
never moved, and no verdict, detection, heal action or eviction did:

1. The ProxyFrontend sends what the Frontend hands it in one instant as
   one ``RequestBatch`` envelope (the 50 µs window still in place). Every
   SCADA run moved, with writes or without, because start-up's initial
   values and browse reply now travel in one envelope: ``campaign``
   (fingerprint and trace digest), ``schedules.scada`` (same 866 events,
   state digests, clock), ``schedules.ids_campaign`` and the five
   ``behaviours.ids_drills`` fingerprints (``silent``/``stuttering``
   detection scores about 1.058 → 1.059), the ``deployment`` campaigns
   ``crash-restart-torn``, ``heal-evict-falsifying``,
   ``rejuvenation-under-fire`` and ``shard-leader-kills``,
   ``deployment.split`` (1779 → 1727 events; alarm ids and state digests)
   and the four ``transfer`` campaign fingerprints (counters unchanged).
2. A leader opens no instance while a decided reconfiguration waits for
   its executor: nothing moved.
3. ``batch_wait`` 0 for the SCADA deployment: the same entries again, and
   the ``transfer`` campaigns' counters. The victim of
   ``crash-restart-{torn,corrupt,wiped}`` has decided one instance more
   (cid 9) when the power is cut, which checkpoints at an interval of 5:
   the WAL is empty, 1216 instead of 464 bytes are installed, and the
   corrupt drill's flipped bit hits the newest checkpoint instead of a
   WAL record (``[4, 0, False]``, was ``[4, 3, True]``). Step 5 gives the
   drills their WAL tail back. ``crash-restart-intact`` and
   ``pipelined-crash-restart`` replay 10 and 12 WAL entries instead of 9.
   ``schedules.scada`` 866 → 852 events, ``deployment.split`` 1727 → 1742.
   Without step 2 ``behaviours.heal_drills.silent`` moved as well (heal
   latency 1.9 → 2.7 s: the instance after the spare's join was proposed
   to the old view and waited for a leader change); with it, it stays.
4. The HMI proxy's two start-up subscriptions travel in one envelope:
   the same entries as step 1 again; ``schedules.scada`` 852 → 848 events,
   ``deployment.split`` 1742 → 1734, ``pipelined-crash-restart`` replays
   11 entries, the detection scores read about 1.058 again.
5. The damaged-disk drills checkpoint every 6 cids instead of 5, so four
   WAL records follow the last checkpoint when the power is cut
   (``tests/integration/test_chaos_campaigns.py`` now fails a drill whose
   fault finds no WAL record): ``deployment`` ``crash-restart-torn`` and
   the ``transfer`` ``crash-restart-{corrupt,wiped}`` fingerprints moved,
   the corrupt victim recovers ``[5, 3, True]`` (checkpoint 5, three
   verified records, damaged tail cut) and both install 1970 bytes.

The change that makes the authenticated envelope the only place a
message names its sender re-recorded, one edit at a time, exactly these
entries. No verdict, detection, score, heal action, eviction or
transfer counter moved at any step:

1. ``SecureChannel.open`` returns ``(message, envelope sender)`` and
   rejects a message whose own sender field disagrees with its envelope,
   and every handler counts the envelope sender: nothing moved (every
   entry here and every count in ``tests/test_hot_path_counts.py``
   stayed byte-identical), since an honest replica always names itself.
2. The ten self-declared sender fields are deleted (``Reply.replica``,
   ``PushMessage.replica`` and ``sender`` of ``Propose``, ``WriteMsg``,
   ``AcceptMsg``, ``Stop``, ``StopData``, ``Sync``, ``StateRequest``,
   ``StateReply``): those ten ``encodings`` rows. The frames shrink by
   about 11 bytes, which moves delivery times under the LAN latency
   model: the ``campaign`` fingerprint and trace digest; the schedule
   digests of ``schedules.bft`` and of the four ``behaviours.bare_group``
   runs (same events, decided streams and values); ``schedules.scada``
   (schedule digest, final clock 1.2099304691950135 →
   1.2099297651950136, and the state digests, which hold the leader's
   timestamps); the fingerprints of ``schedules.ids_campaign``, the five
   ``behaviours.ids_drills``, the ``deployment`` campaigns
   ``crash-restart-torn``, ``heal-evict-falsifying``,
   ``rejuvenation-under-fire`` and ``shard-leader-kills``, and the four
   ``transfer`` campaigns; ``transfer.leader_crash`` (schedule digest,
   final clock 3.563954497801297 → 3.5639465778012975, same events).
   ``counter_trace_sha256`` (constant latency), ``bft_micro``,
   ``deployment.split`` and ``behaviours.heal_drills`` did not move.
3. A replica answers a retransmission from the replies of the client's
   last executed batch, and the push voter indexes its candidates by
   slot and caps each member's undelivered votes: nothing moved.

The change that lets followers forward an unproposed request and then
suspect a leader silent past their measured PROPOSE turnaround
re-recorded, one edit at a time from untouched parent ``src/``, exactly
four entries: ``deployment`` ``shard-leader-kills``,
``transfer.leader_crash``, ``behaviours.ids_drills.equivocating`` and
``behaviours.bare_group.equivocating``. Every other entry, and every
fault-free schedule digest, stayed byte-identical at every step:

1. The codec fails closed and the WAL and checkpoint readers catch only
   ``DecodeError``; the ``slow`` behaviour, the ``client-*`` and
   ``slow-leader`` scenarios and the throughput-floor monitor join the
   library: nothing moved.
2. The tentpole: every replica takes a valid PROPOSE's requests out of
   its pool and times them; a follower forwards, then suspects (cause on
   ``sync.suspect``); ``request_timeout`` is the backstop for proposals
   only; the IDS counts first-hand ``invalid``/``stalled`` suspicions; a
   follower drops pooled requests its executor already dispatched before
   it forwards. The four entries moved: the leaders that die (killed
   shard leaders, the bare-library crash) are replaced in milliseconds
   (``transfer.leader_crash`` 1065 → 1051 events, final clock
   3.5639465778012975 → 3.221023248208224; the same one full transfer
   of 334 bytes), the bare equivocating leader is replaced sooner
   (1133 → 1021 events, a different but equally valid interleaving of
   the two clients; all 40 adds complete), and the
   equivocating IDS drill is caught by the two replicas its reversed
   batch failed (``invalid``): same detection instant, kind and entity,
   score 1.5 → 1.0, the evidence text names the cause; its
   fingerprint did not move.
3. A replica re-announces its STOP when it installs a regency, and the
   next regency's leader keeps an early STOP-DATA: the same four moved
   again, by the extra STOPs of every leader change
   (``transfer.leader_crash`` 1051 → 1060 events, clock
   3.221195758813663; ``bare_group.equivocating`` 1021 → 1033;
   ``ids_drills.equivocating`` fingerprint, same detections).
4. A leader whose state transfer ends without news proposes at once:
   nothing moved.
5. A leader whose executor replays a transferred or recovered backlog
   does not hold its pool: nothing moved.
6. A follower's pause counts only the instances it holds a PROPOSE for,
   the aged-pending ``request_timeout`` backstop suspects again whether
   or not the oldest request was proposed (cause ``silent`` or
   ``stalled``), and the IDS counts only first-hand ``invalid``
   suspicions, since a partition strands a correct leader's proposal as
   ``stalled`` too: only the evidence text of
   ``ids_drills.equivocating`` moved ("an invalid proposal"); the same
   detection, score and fingerprint.

The change that sends the leader's live PROPOSE by reference — one
``(client_id, sequence)`` key per request and the value's digest instead
of the requests, rebuilt by each follower from its own pool — re-recorded,
one edit at a time from untouched parent ``src/``, exactly these entries:

1. ``FetchRequests`` (wire id 35) is registered, unused: only
   ``encodings["35-FetchRequests"]`` was added.
2. The tentpole: the PROPOSE names its requests, a follower rebuilds the
   value (or fetches the batch it cannot rebuild), SYNC re-proposals
   keep entering by value, and the ``equivocating`` behaviour builds its
   two PROPOSEs through the reference form. ``encodings["23-Propose"]``
   moved with the wire form. Every run whose latency model charges size
   moved its timing only: the fingerprints of ``campaign`` (and its
   trace digest), ``schedules.ids_campaign``, the four ``deployment``
   campaigns, the four ``transfer`` restart campaigns and the five
   ``ids_drills``; the schedule digests of ``schedules.bft``,
   ``schedules.scada`` (with its final clock and state digests, which
   carry the leader's earlier PROPOSE timestamps),
   ``transfer.leader_crash`` (final clock 3.221195758813663 ->
   3.221188598469913) and the four ``bare_group`` rows. Every event
   count, decided stream, service value, detection, score, transfer
   counter, heal action and eviction, ``deployment.split``,
   ``bft_micro``, the ``heal_drills`` and ``counter_trace_sha256``
   (constant latency) stayed byte-identical. The only fetches in all of
   these runs are two by the spare (``replica-4``) a heal drill
   provisions, which the clients had not multicast to yet.
3. The ``withholding`` and ``misdigesting`` behaviours and the
   ``client-equivocating-sequence`` scenario join: nothing moved.

The change that drives each replica's executor from ``defer`` instead of
a process fed by a channel re-recorded, as one edit, every entry that
counts or hashes the kernel's dispatches, and nothing else. Queuing a
decided batch no longer dispatches the channel put's no-op event, one
per batch per replica; the executor's wake-ups (the channel get and the
cost timeouts) became ``defer`` calls at the same ``(when, priority)``
and in the same order. The ``(when, priority, callback)`` sequence of
every scenario here, with the old put events dropped and the old
executor resumes named as ``_drive_executor`` calls, is the parent's,
dispatch for dispatch. What moved:

- the dispatch counts: ``schedules.bft`` 1212 → 1132, ``schedules.scada``
  848 → 792, ``transfer.leader_crash`` 1060 → 980, ``deployment.split``
  1734 → 1628, the ``behaviours.bare_group`` runs (``equivocating``
  1033 → 1013, ``lying`` 1452 → 1372, ``silent`` 1252 → 1192,
  ``stuttering`` 1412 → 1332), and ``counter_trace_sha256``, which
  hashes one (685 → 625);
- the schedule digests of the same seven runs, which hash each
  dispatch's ``seq`` (one fewer per put);
- the fingerprints of ``campaign``, ``schedules.ids_campaign``, the four
  ``deployment`` campaigns, the four ``transfer`` campaigns and the five
  ``behaviours.ids_drills``, which hash the run's dispatch count: each
  equals the parent's once the parent's count is put back in.

Every trace digest, decided stream, service value, state digest, final
clock, detection, score, transfer counter, heal action, eviction and
violation stayed byte-identical, as did ``bft_micro``, ``encodings`` and
the ``behaviours.heal_drills``.

The ``roles`` block was recorded from the untouched ``src/`` of the last
commit whose ``ServiceReplica`` still held its pool, proposer, acceptor
and executor in one class, before they became four collaborators: a bare
group under a withholding and under a misdigesting leader (the fetch
path), the ``slow-leader`` campaign at seeds 0-2 (the silence rule) and
an administrator's signed join of a fifth replica (reconfiguration,
checkpoints and the joiner's transfer), each with its schedule digest,
decided streams and every replica's counters.

The ``neoscada`` block was recorded from the untouched ``src/`` of the
last commit whose unreplicated Master fed its four jittered workers
through a ``Channel``: Fig 8(a)-style updates at 400/s over five items
with a ``Monitor`` alarm and two HMI writes. The change that queues their
messages in a ``deque`` and wakes an idle worker with a plain event
re-recorded exactly two entries, ``dispatched`` (1485 → 1272) and
``schedule_sha256``: the channel put's no-op event, one per data-plane
message (213), is no longer dispatched. The parent's
``(when, priority, callback)`` sequence with those put events dropped,
and its channel gets named as plain events, is the new one, dispatch for
dispatch. The completion instants, HMI values, alarm ids, event storage,
write results and final clock stayed byte-identical.
"""

import json
import pathlib

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "outputs.json").read_text(encoding="utf-8")
)
