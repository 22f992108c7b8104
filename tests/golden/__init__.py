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
"""

import json
import pathlib

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "outputs.json").read_text(encoding="utf-8")
)
