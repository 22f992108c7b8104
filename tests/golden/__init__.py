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
"""

import json
import pathlib

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "outputs.json").read_text(encoding="utf-8")
)
