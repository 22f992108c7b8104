"""Mean-time-to-recovery of the closed-loop self-healing subsystem.

For each of the five Byzantine replica behaviours the library scenario
``heal-evict-<behaviour>`` plants the compromise at t=1.2s with healing
enabled (zero-trust policy: confirmed Byzantine replicas are evicted).
:func:`repro.chaos.run_heal_drill` installs the
:class:`~repro.chaos.monitors.MttrMonitor` (planted ground truth vs the
first detection and the completed recovery action) and the
:class:`~repro.chaos.monitors.AvailabilityMonitor` (operator-write
throughput before the attack, under it and after the heal).

Acceptance (the ISSUE's bar): every behaviour is evicted and replaced
with all safety/liveness monitors green, post-heal throughput recovers
to >= 90% of the pre-attack rate, and no unsafe action is ever taken
(every completed action passed the 2f+1 quorum guard). Results land in
``BENCH_MTTR.json``.
"""

from __future__ import annotations

import pathlib

from conftest import once, print_table

from repro.chaos import run_heal_drill
from repro.workloads.profiler import write_report

REPORT_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_MTTR.json"

SEED = 3
ATTACK_AT = 1.2
BEHAVIOURS = ("silent", "stuttering", "lying", "falsifying", "equivocating")


def run_drill(behaviour: str) -> dict:
    drill = run_heal_drill(behaviour, SEED)
    assert not drill["violations"], drill["violations"]
    assert drill["evictions"] == 1
    assert drill["attack_at"] == ATTACK_AT
    assert drill["healed_at"] is not None

    #: "Unsafe" = an action that went ahead despite guard blockers, or
    #: any completed action beyond the single planned eviction.
    completed = [
        a for a in drill["heal_actions"] if a["outcome"] == "completed"
    ]
    assert [a["kind"] for a in completed] == ["evict"]

    return {
        "behaviour": behaviour,
        "detect_latency_s": round(drill["detect_latency"], 4),
        "heal_latency_s": round(drill["heal_latency"], 4),
        "ops_pre": round(drill["ops_pre"], 3),
        "ops_during": round(drill["ops_during"], 3),
        "ops_post": round(drill["ops_post"], 3),
        "recovered": round(drill["recovered"] or 0.0, 4),
        "evictions": drill["evictions"],
        "blocked": sum(
            1 for a in drill["heal_actions"] if a["outcome"] == "blocked"
        ),
    }


def test_heal_mttr(benchmark):
    results = once(benchmark, lambda: [run_drill(b) for b in BEHAVIOURS])

    print_table(
        "closed-loop recovery: time-to-detect / time-to-heal "
        f"(seed {SEED}, attack at t={ATTACK_AT}s)",
        ["behaviour", "detect", "heal", "ops/s pre", "ops/s during",
         "ops/s post", "recovered"],
        [
            [
                r["behaviour"],
                f"{r['detect_latency_s']:.2f}s",
                f"{r['heal_latency_s']:.2f}s",
                f"{r['ops_pre']:.2f}",
                f"{r['ops_during']:.2f}",
                f"{r['ops_post']:.2f}",
                f"{r['recovered'] * 100:.0f}%",
            ]
            for r in results
        ],
    )

    for r in results:
        assert r["evictions"] == 1, r
        assert r["recovered"] >= 0.9, r
        assert r["detect_latency_s"] <= r["heal_latency_s"], r

    write_report(
        {
            "mttr": {
                "seed": SEED,
                "attack_at_s": ATTACK_AT,
                "behaviours": {r["behaviour"]: r for r in results},
            }
        },
        str(REPORT_PATH),
    )
